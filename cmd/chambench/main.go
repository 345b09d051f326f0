// Command chambench measures this repository's software HMVP stack into
// the ledger BENCH_hmvp.json, one top-level section per measurement:
//
//	chambench [-compare FILE] [warm] [cluster] [np] [remote]
//
// A run replaces only the sections it names (warm by default) and leaves
// every other section's bytes as they were; with -compare it writes
// nothing and gates the sections against FILE instead (gate.go).
//
// warm times the per-call MatVec (which redoes the row encode/lift/NTT
// every call) against the prepared path (Prepare once, ApplyInto per
// vector, allocation-free after warm-up) and the packing tree alone. The
// 256×4096 matrix is measured at two ring degrees. At the production
// degree N=4096 the whole vector fits one ciphertext chunk, so the
// m-1 = 255 key-switches of the packing tree — per-vector work no amount
// of matrix preparation can remove — dominate both paths. At N=512 the
// same matrix spans 8 column chunks per row, the regime where the
// amortized encode+lift+NTT work dominates and preparation pays off.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"cham"
	"cham/internal/obs"
	_ "cham/internal/runtime" // RAS metric families appear (at zero) in the snapshot
	"cham/internal/testutil"
)

var (
	outPath     = flag.String("o", "BENCH_hmvp.json", "report to merge the measured sections into")
	compare     = flag.String("compare", "", "baseline report to gate the measured sections against (make bench-diff); writes no report")
	workers     = flag.Int("workers", 0, "evaluator worker goroutines for warm and np (0 = GOMAXPROCS)")
	remote      = flag.String("remote", "self", `remote target: "self" spins up loopback servers in-process, host:port a running chamserve`)
	remoteN     = flag.Int("remote-n", 256, "ring degree for remote (must match an external server)")
	traceSample = flag.Float64("trace-sample", 0, "with cluster: afterwards, send one sampled apply through a gateway-fronted 2-shard fleet and print the merged trace")
)

// runs measures each section named on the command line into a report.
var runs = map[string]func(report) error{
	"warm":    runWarm,
	"cluster": runCluster,
	"np":      runNp,
	"remote":  runRemote,
}

func main() {
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: chambench [flags] [warm] [cluster] [np] [remote]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := run(flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "chambench:", err)
		os.Exit(1)
	}
}

// run measures the sections, then gates them against -compare or merges
// them into -o.
func run(sections []string) error {
	if len(sections) == 0 {
		sections = []string{"warm"}
	}
	for _, s := range sections {
		if runs[s] == nil {
			return fmt.Errorf("unknown section %q (want warm, cluster, np or remote)", s)
		}
	}
	var base report // nil: no baseline, only the floors apply
	if *compare != "" {
		var err error
		if base, err = loadReport(*compare); err != nil {
			return err
		}
		if len(base) == 0 {
			return fmt.Errorf("baseline %s is missing or empty", *compare)
		}
		fmt.Printf("gating %s against %s\n", strings.Join(sections, ", "), *compare)
	}
	measured := report{}
	for _, s := range sections {
		if err := runs[s](measured); err != nil {
			return err
		}
	}
	failures, err := gate(os.Stdout, base, measured)
	if err != nil {
		return err
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "chambench: FAIL:", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d gate failure(s)", len(failures))
	}
	if *compare != "" {
		fmt.Println("bench-diff clean")
		return nil
	}
	if err := saveReport(*outPath, measured); err != nil {
		return err
	}
	fmt.Printf("wrote %s into %s\n", strings.Join(sections, ", "), *outPath)
	return nil
}

type result struct {
	Name       string  `json:"name"`
	RingDegree int     `json:"ring_degree"`
	Rows       int     `json:"rows"`
	Cols       int     `json:"cols"`
	NsPerOp    float64 `json:"ns_per_op"`
	AllocsOp   int64   `json:"allocs_per_op"`
	BytesOp    int64   `json:"bytes_per_op"`
	RowsPerSec float64 `json:"rows_per_sec"`
}

// bench runs f under the testing harness and converts the outcome.
func bench(name string, n, m, cols int, f func(b *testing.B)) result {
	r := testing.Benchmark(f)
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	return result{
		Name:       name,
		RingDegree: n,
		Rows:       m,
		Cols:       cols,
		NsPerOp:    ns,
		AllocsOp:   r.AllocsPerOp(),
		BytesOp:    r.AllocedBytesPerOp(),
		RowsPerSec: float64(m) / ns * 1e9,
	}
}

// runShape measures one matrix shape at one ring degree: per-call MatVec,
// cold Prepare+Apply, and warm ApplyInto reuse.
func runShape(ringN, m, cols int, workers int) ([]result, float64, error) {
	params, err := cham.NewParams(ringN)
	if err != nil {
		return nil, 0, err
	}
	rng := cham.NewRNG(99)
	sk := params.KeyGen(rng)
	ev, err := cham.NewEvaluator(params, rng, sk, m)
	if err != nil {
		return nil, 0, err
	}
	ev.Workers = workers
	A := testutil.Matrix(rng, m, cols, params.T.Q)
	v := testutil.Vector(rng, cols, params.T.Q)
	ctV := cham.EncryptVector(params, rng, sk, v)

	// Correctness gate before timing anything.
	pm, err := ev.Prepare(A)
	if err != nil {
		return nil, 0, err
	}
	res, err := pm.Apply(ctV)
	if err != nil {
		return nil, 0, err
	}
	want := cham.PlainMatVec(params, A, v)
	for i, got := range cham.DecryptResult(params, res, sk) {
		if got != want[i] {
			return nil, 0, fmt.Errorf("N=%d: verification failed at row %d", ringN, i)
		}
	}

	tag := func(s string) string { return fmt.Sprintf("%s/N=%d", s, ringN) }
	matvec := bench(tag("MatVec"), ringN, m, cols, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ev.MatVec(A, ctV); err != nil {
				b.Fatal(err)
			}
		}
	})
	cold := bench(tag("Prepared/cold"), ringN, m, cols, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pm, err := ev.Prepare(A)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pm.Apply(ctV); err != nil {
				b.Fatal(err)
			}
		}
	})
	warm := bench(tag("Prepared/warm"), ringN, m, cols, func(b *testing.B) {
		b.ReportAllocs()
		out := pm.NewResult()
		if err := pm.ApplyInto(out, ctV); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pm.ApplyInto(out, ctV); err != nil {
				b.Fatal(err)
			}
		}
	})
	// One instrumented pass after the timed runs populates the stage
	// histograms for the report's telemetry section; MatVec covers the
	// full stage taxonomy (encode/lift/ntt run on the fly), Prepare feeds
	// cham_hmvp_prepare_seconds (it would otherwise stay empty — the
	// correctness-gate Prepare above runs before telemetry is switched
	// on), and Apply the prepared path's end-to-end view.
	obs.SetEnabled(true)
	err = func() error {
		defer obs.SetEnabled(false)
		if _, err := ev.MatVec(A, ctV); err != nil {
			return err
		}
		pm, err := ev.Prepare(A)
		if err != nil {
			return err
		}
		_, err = pm.Apply(ctV)
		return err
	}()
	if err != nil {
		return nil, 0, err
	}
	return []result{matvec, cold, warm}, matvec.NsPerOp / warm.NsPerOp, nil
}

// runWarm measures the warm section: the prepared-apply shapes and the
// packing tree in isolation — full-tree warm rows at the production and
// test degrees, per-level merge breakdown at the production degree —
// plus the telemetry snapshot of one instrumented apply per shape.
func runWarm(rep report) error {
	const m, cols = 256, 4096
	var rows []result
	speedups := map[string]float64{}
	for _, ringN := range []int{4096, 512, 256} {
		results, speedup, err := runShape(ringN, m, cols, *workers)
		if err != nil {
			return err
		}
		rows = append(rows, results...)
		speedups[fmt.Sprintf("N=%d", ringN)] = speedup
		for _, r := range results {
			fmt.Printf("%-22s %12.0f ns/op %8d allocs/op %10.0f rows/s\n",
				r.Name, r.NsPerOp, r.AllocsOp, r.RowsPerSec)
		}
		fmt.Printf("  warm Apply speedup over MatVec at N=%d: %.2fx\n", ringN, speedup)
	}
	for _, pc := range []struct {
		n        int
		perLevel bool
	}{{4096, true}, {256, false}} {
		results, err := runPack(pc.n, m, pc.perLevel)
		if err != nil {
			return err
		}
		rows = append(rows, results...)
		for _, r := range results {
			fmt.Printf("%-22s %12.0f ns/op %8d allocs/op\n", r.Name, r.NsPerOp, r.AllocsOp)
		}
	}
	if err := rep.set("benchmarks", rows); err != nil {
		return err
	}
	if err := rep.set("prepared_apply_speedup", speedups); err != nil {
		return err
	}
	// The timed benchmarks run with telemetry off so the numbers stay
	// undisturbed; the snapshot holds runShape's instrumented passes.
	return rep.set("telemetry", obs.Default().Snapshot())
}
