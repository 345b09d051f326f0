package main

// The benchmark's own instruments: the machine fingerprint stamped on
// every output, peak RSS, deltas of the program's obs registry across a
// run, and the span recorder of the traced run. None of them touches the
// program; spans wrap only the calls this benchmark makes.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cham/internal/obs"
)

// fingerprint identifies the machine, build and inputs behind a run, so
// two runs are compared only when they match.
func fingerprint(w *spec, seed int64) map[string]any {
	return map[string]any{
		"workload":     w.name,
		"seed":         seed,
		"ring_degree":  w.n,
		"cpu_model":    cpuModel(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"eval_workers": w.evalWorkers,
		"go_version":   runtime.Version(),
		"git_commit":   gitCommit(),
		"source_hash":  sourceHash(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit is HEAD when the benchmark runs at the root of a git work
// tree and "none" otherwise; sourceHash identifies the code either way.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash is the SHA-256 over every Go source and go.mod file of the
// checkout (path and content), skipping hidden directories such as the
// build directory.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// rssPeakMB is the process's peak resident set (VmHWM) in MiB.
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest) // "<n> kB"
			if len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// hostCPU returns the host's stolen and total CPU ticks from the "cpu"
// line of /proc/stat (zeros when unavailable). Stolen time is time the
// hypervisor ran something else on this machine's virtual CPUs; the load
// summary reports its share of each run, so a run slowed by a busy host
// can be told from one slowed by the code.
func hostCPU() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal [guest...]
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for _, s := range f[1:9] { // guest time is already counted in user
		v, _ := strconv.ParseUint(s, 10, 64)
		total += v
	}
	steal, _ = strconv.ParseUint(f[8], 10, 64)
	return steal, total
}

// seriesDelta is the change of one obs series across a window.
type seriesDelta struct {
	value, count, sum float64
}

// regDelta maps series keys (family plus sorted labels) to their change.
type regDelta map[string]seriesDelta

func seriesKey(name string, labels map[string]string) string {
	kv := make([]string, 0, len(labels))
	for k, v := range labels {
		kv = append(kv, k+"="+v)
	}
	sort.Strings(kv)
	return name + "{" + strings.Join(kv, ",") + "}"
}

// delta subtracts two registry snapshots.
func delta(before, after []obs.MetricSnapshot) regDelta {
	base := map[string]obs.MetricSnapshot{}
	for _, s := range before {
		base[seriesKey(s.Name, s.Labels)] = s
	}
	d := regDelta{}
	for _, s := range after {
		k := seriesKey(s.Name, s.Labels)
		b := base[k]
		d[k] = seriesDelta{value: s.Value - b.Value, count: float64(s.Count) - float64(b.Count), sum: s.Sum - b.Sum}
	}
	return d
}

// get looks up a series by family and label pairs.
func (d regDelta) get(name string, kv ...string) seriesDelta {
	labels := map[string]string{}
	for i := 0; i+1 < len(kv); i += 2 {
		labels[kv[i]] = kv[i+1]
	}
	return d[seriesKey(name, labels)]
}

// mean is a histogram's mean observation over the window (0 if empty).
func (d regDelta) mean(name string, kv ...string) float64 {
	s := d.get(name, kv...)
	if s.count == 0 {
		return 0
	}
	return s.sum / s.count
}

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Calls  int    `json:"calls,omitempty"` // >1 when one span times a tight loop of calls
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Err    string `json:"err,omitempty"`
}

// recorder keeps the traced run's spans in memory until the end. A nil
// recorder records nothing, so the untraced run pays one branch a call.
type recorder struct {
	runID string
	mu    sync.Mutex
	spans []span
}

func newRecorder(runID string) *recorder {
	return &recorder{runID: runID, spans: make([]span, 0, 4096)}
}

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: time.Now().UnixNano()})
	return len(r.spans)
}

// end closes span id after calls calls, noting err if any.
func (r *recorder) end(id, calls int, err error) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End, s.Calls = now, calls
	if err != nil {
		s.Err = err.Error()
	}
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// write stores the spans as one JSON document and returns its path.
func (r *recorder) write(dir string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := r.runID + "-spans.json"
	err := writeJSON(dir, name, map[string]any{"run_id": r.runID, "spans": r.spans})
	return filepath.Join(dir, name), err
}
