//go:build !race

package chamnp

// Warm-path allocation assertions. AllocsPerRun is meaningless under
// the race detector's instrumented allocator, so this file is excluded
// from `make race`; the same invariant is gated continuously by
// `chambench -compare BENCH_hmvp.json np` (make bench-diff).

import (
	"testing"

	"cham/internal/testutil"
)

// TestMatMulWarmZeroAllocs: once the result is preallocated and the
// lane caches built, MatMulInto performs zero heap allocations — both
// layouts, serial workers (goroutine fan-out would allocate stacks).
func TestMatMulWarmZeroAllocs(t *testing.T) {
	p, rng, sk, ev := setup(t, 64)
	ev.Workers = 1
	pm, err := ev.Prepare(testutil.Matrix(rng, 40, 64, p.T.Q))
	if err != nil {
		t.Fatal(err)
	}
	b := Local(pm)
	for _, layout := range []Layout{ColMajor, RowMajor} {
		var data [][]uint64
		if layout == ColMajor {
			data = testutil.Matrix(rng, 64, 4, p.T.Q)
		} else {
			data = testutil.Matrix(rng, 4, 64, p.T.Q)
		}
		x, err := Array(p, rng, sk, data, layout)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := NewMatMulResult(b, x)
		if err != nil {
			t.Fatal(err)
		}
		// Warm both the evaluator's scratch pools and the lane caches.
		for i := 0; i < 2; i++ {
			if err := MatMulInto(b, dst, x); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() {
			if err := MatMulInto(b, dst, x); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s warm MatMulInto allocates %.1f/op, want 0", layout, allocs)
		}
	}
}
