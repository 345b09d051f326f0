package main

// chambench np: the encrypted-array tier's numbers. Measures the warm
// MatMulInto hot path (one PreparedMatrix driving a whole batch of
// column blocks, allocation-free after warm-up) at the single-chunk and
// multi-chunk regimes, plus the per-layer latency of the two-layer
// chamnp inference pipeline. Results land in BENCH_hmvp.json under "np"
// and are gated by `chambench -compare` (make bench-diff): warm MatMul
// allocs must stay 0 and ns/op within 10% of the baseline.

import (
	"fmt"
	"testing"
	"time"

	"cham"
	"cham/internal/chamnp"
	"cham/internal/ref"
	"cham/internal/testutil"
)

type npLayer struct {
	Name   string  `json:"name"`
	Millis float64 `json:"millis"`
}

type npResult struct {
	// MatMul holds the warm MatMulInto rows; Rows/Cols describe the
	// OUTPUT matrix (prepared rows × batch), RowsPerSec counts decrypted
	// result values per second.
	MatMul []result `json:"matmul"`
	// InferenceLayers is the per-layer latency (best of several runs) of
	// the matmul→bias→square→matmul→bias pipeline at N=256.
	InferenceLayers []npLayer `json:"inference_layers"`
	InferenceMillis float64   `json:"inference_total_millis"`
}

// runNpShape measures one warm batched matmul: W is rows×cols prepared
// once, X is cols×batch encrypted column-major, and the timed op is
// MatMulInto into a preallocated result.
func runNpShape(ringN, rows, cols, batch, workers int) (result, error) {
	params, err := cham.NewParams(ringN)
	if err != nil {
		return result{}, err
	}
	rng := cham.NewRNG(137)
	sk := params.KeyGen(rng)
	ev, err := cham.NewEvaluator(params, rng, sk, rows)
	if err != nil {
		return result{}, err
	}
	ev.Workers = workers
	W := testutil.Matrix(rng, rows, cols, params.T.Q)
	X := testutil.Matrix(rng, cols, batch, params.T.Q)
	pm, err := ev.Prepare(W)
	if err != nil {
		return result{}, err
	}
	b := chamnp.Local(pm)
	xm, err := chamnp.Array(params, rng, sk, X, chamnp.ColMajor)
	if err != nil {
		return result{}, err
	}
	dst, err := chamnp.NewMatMulResult(b, xm)
	if err != nil {
		return result{}, err
	}
	// Correctness gate before timing: the warm output must match the
	// exact reference product.
	if err := chamnp.MatMulInto(b, dst, xm); err != nil {
		return result{}, err
	}
	want, err := ref.MatMul(params.T.Q, W, X)
	if err != nil {
		return result{}, err
	}
	for i, row := range dst.Decrypt(sk) {
		for j, got := range row {
			if got != want[i][j] {
				return result{}, fmt.Errorf("np N=%d: verification failed at [%d][%d]", ringN, i, j)
			}
		}
	}
	name := fmt.Sprintf("NpMatMul/warm/N=%d", ringN)
	return bench(name, ringN, rows*batch, cols, func(bb *testing.B) {
		bb.ReportAllocs()
		for i := 0; i < bb.N; i++ {
			if err := chamnp.MatMulInto(b, dst, xm); err != nil {
				bb.Fatal(err)
			}
		}
	}), nil
}

// runNpInference times each layer of the two-layer pipeline (best of
// npInferenceRuns passes — layer latencies jitter, the best run is the
// reproducible one).
func runNpInference(workers int) ([]npLayer, error) {
	const ringN, hidden, classes, batch = 256, 16, 10, 3
	params, err := cham.NewParams(ringN)
	if err != nil {
		return nil, err
	}
	rng := cham.NewRNG(211)
	sk := params.KeyGen(rng)
	ev, err := cham.NewEvaluator(params, rng, sk, params.R.N)
	if err != nil {
		return nil, err
	}
	ev.Workers = workers
	W1 := testutil.Matrix(rng, hidden, ringN, params.T.Q)
	W2 := testutil.Matrix(rng, classes, hidden, params.T.Q)
	b1 := make([]uint64, hidden)
	b2 := make([]uint64, classes)
	X := testutil.Matrix(rng, ringN, batch, params.T.Q)
	pm1, err := ev.Prepare(W1)
	if err != nil {
		return nil, err
	}
	pm2, err := ev.Prepare(W2)
	if err != nil {
		return nil, err
	}

	layers := []npLayer{{Name: "matmul1"}, {Name: "bias1"}, {Name: "square_recrypt"}, {Name: "matmul2"}, {Name: "bias2"}}
	const npInferenceRuns = 5
	for run := 0; run < npInferenceRuns; run++ {
		x, err := chamnp.Array(params, rng, sk, X, chamnp.ColMajor)
		if err != nil {
			return nil, err
		}
		steps := []func(h *chamnp.EncMatrix) (*chamnp.EncMatrix, error){
			func(*chamnp.EncMatrix) (*chamnp.EncMatrix, error) { return chamnp.MatMul(chamnp.Local(pm1), x) },
			func(h *chamnp.EncMatrix) (*chamnp.EncMatrix, error) { return h.AddVector(b1) },
			func(h *chamnp.EncMatrix) (*chamnp.EncMatrix, error) { return h.SquareRecrypt(rng, sk) },
			func(h *chamnp.EncMatrix) (*chamnp.EncMatrix, error) { return chamnp.MatMul(chamnp.Local(pm2), h) },
			func(h *chamnp.EncMatrix) (*chamnp.EncMatrix, error) { return h.AddVector(b2) },
		}
		var h *chamnp.EncMatrix
		for i, step := range steps {
			t0 := time.Now()
			if h, err = step(h); err != nil {
				return nil, fmt.Errorf("inference %s: %w", layers[i].Name, err)
			}
			ms := float64(time.Since(t0)) / float64(time.Millisecond)
			if run == 0 || ms < layers[i].Millis {
				layers[i].Millis = ms
			}
		}
	}
	return layers, nil
}

// runNp measures the np section.
func runNp(rep report) error {
	nr := &npResult{}
	for _, sh := range []struct{ n, rows, cols, batch int }{
		{256, 64, 256, 8},   // single chunk per lane, 8 column blocks
		{512, 128, 1024, 4}, // multi-chunk: 2 vector ciphertexts per lane
	} {
		r, err := runNpShape(sh.n, sh.rows, sh.cols, sh.batch, *workers)
		if err != nil {
			return err
		}
		nr.MatMul = append(nr.MatMul, r)
		fmt.Printf("%-22s %12.0f ns/op %8d allocs/op %10.0f rows/s  (batch %d)\n",
			r.Name, r.NsPerOp, r.AllocsOp, r.RowsPerSec, sh.batch)
	}
	layers, err := runNpInference(*workers)
	if err != nil {
		return err
	}
	nr.InferenceLayers = layers
	for _, l := range layers {
		nr.InferenceMillis += l.Millis
		fmt.Printf("  inference %-16s %8.3f ms\n", l.Name, l.Millis)
	}
	fmt.Printf("  inference total         %8.3f ms\n", nr.InferenceMillis)
	return rep.set("np", nr)
}
