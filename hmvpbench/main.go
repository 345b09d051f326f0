// Command hmvpbench is the repository benchmark: it drives the real B/FV
// software HMVP path through one of three named workloads, checks every
// product against the cleartext product, and prints the end-to-end
// metrics (tracing off) or the per-layer metrics (a second, traced run
// plus per-layer probes) as the last line of standard output.
//
//	hmvpbench --workload solo-4096 --seed 1 --seconds 20 --trace 0
//
// Servers run with no simulated card, so every number is measured
// software time; see README.md for why each workload exists and how the
// old BENCH_hmvp.json rows map onto these metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cham/internal/obs"
)

// setupReps is how many times a run builds its serving stack from
// scratch; setup_s is their median.
const setupReps = 5

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: solo-4096, matmul-256 or shard-64")
	seed := flag.Int64("seed", 1, "seed for the matrix, the vectors and the arrival schedule")
	seconds := flag.Int("seconds", 20, "length of each timed run in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: add a traced run and print per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "hmvpbench"), "directory for the run report and span file")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "hmvpbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmvpbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmvpbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "hmvpbench: a product did not match the cleartext product")
		os.Exit(1)
	}
}

// run executes one workload end to end and returns the result line.
func run(w *spec, seed int64, window time.Duration, traced bool, outDir string) (result, error) {
	fp := fingerprint(w, seed)
	fpLine, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", fpLine)

	goroutines0 := runtime.NumGoroutine()
	fx, err := w.fixture(seed)
	if err != nil {
		return result{}, fmt.Errorf("%s fixture: %w", w.name, err)
	}

	// Set up from nothing setupReps times; keep the last stack for the load.
	var tgt target
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if tgt != nil {
			if err := tgt.close(); err != nil {
				return result{}, fmt.Errorf("%s drain: %w", w.name, err)
			}
		}
		// Collect the previous stack first, so peak RSS reflects one stack
		// and not how far the collector happened to lag.
		runtime.GC()
		t0 := time.Now()
		tgt, err = w.setUp(fx, seed)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	fmt.Printf("setup_s %v\n", setups)
	load := drive(w, tgt, seed, window, nil)
	fmt.Printf("load %s: %d attempted, %d failed, %d wrong, %d samples, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, error_rate %.4f, tile_split %.3f, host_steal %.3f\n",
		w.name, load.attempted, load.failed, load.wrong, len(load.lat),
		quantile(load.lat, 0.5), quantile(load.lat, 0.9), quantile(load.lat, 0.99),
		float64(load.failed+load.wrong)/float64(max(load.attempted, 1)), tgt.tileSplit(), load.steal)

	out := result{
		Correct:   load.wrong == 0,
		Attempted: load.attempted,
		Failed:    load.failed + load.wrong,
		Metrics:   map[string]metric{},
	}
	report := map[string]any{"fingerprint": fp, "setup_s": setups, "load": load.summary()}

	if !traced {
		out.Metrics = endToEnd(w, setups, load)
		if err := tgt.close(); err != nil {
			return result{}, fmt.Errorf("%s drain: %w", w.name, err)
		}
	} else {
		rec := newRecorder(fmt.Sprintf("%s-seed%d-%d", w.name, seed, time.Now().UnixNano()))
		obs.SetEnabled(true)
		before := obs.Default().Snapshot()
		tl := drive(w, tgt, seed, window, rec)
		loadDelta := delta(before, obs.Default().Snapshot())
		layers, err := probe(w, fx, tgt, load, tl, loadDelta, rec)
		obs.SetEnabled(false)
		if cerr := tgt.close(); err == nil && cerr != nil {
			err = fmt.Errorf("%s drain: %w", w.name, cerr)
		}
		if err != nil {
			return result{}, err
		}
		out.Correct = out.Correct && tl.wrong == 0
		out.Attempted += tl.attempted
		out.Failed += tl.failed + tl.wrong
		out.Metrics = layers
		report["traced_load"] = tl.summary()
		path, err := rec.write(outDir)
		if err != nil {
			return result{}, err
		}
		fmt.Printf("spans %s (%d spans)\n", path, rec.len())
	}

	leaked := settleGoroutines(goroutines0)
	fmt.Printf("leaked_goroutines %d\n", leaked)
	if traced {
		out.Metrics["leaked_goroutines"] = metric{float64(leaked), "count"}
	}
	report["metrics"] = out.Metrics
	if err := writeJSON(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, b2i(traced)), report); err != nil {
		return result{}, err
	}
	return out, nil
}

// endToEnd derives the user-visible metrics of one untraced run. The
// tail percentiles are reported per layer (loadgen.latency_p90_ms and
// loadgen.latency_p99_ms, with the sample count) instead: a closed-loop
// run completes about a hundred requests, so its p99 is its slowest one,
// and on a shared 2-vCPU host the p90 of a run moves with the
// hypervisor's CPU steal by more than any bound this benchmark may set.
func endToEnd(w *spec, setups []float64, l *loadResult) map[string]metric {
	return map[string]metric{
		"setup_s":        {median(setups), "s"},
		"latency_p50_ms": {quantile(l.lat, 0.50), "ms"},
		"rows_per_s":     {l.rowsPerSec(w), "1/s"},
		"rss_peak_mb":    {rssPeakMB(), "MB"},
	}
}

// settleGoroutines waits briefly for drained goroutines to exit and
// returns how many more are running than at start.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine() - base
}

// drainCtx bounds every graceful shutdown.
func drainCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 10*time.Second)
}

func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
