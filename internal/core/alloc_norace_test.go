//go:build !race

package core

// Warm-path allocation assertions. AllocsPerRun is meaningless under
// the race detector's instrumented allocator, so this file is excluded
// from `make race`. Only Workers=1 is pinned: the goroutine fan-out at
// higher worker counts still allocates.

import (
	"testing"

	"cham/internal/rlwe"
)

// TestApplyWarmZeroAllocs: once the evaluator's scratch pools are warm,
// every entry into the prepared-apply driver — ApplyInto, ApplyBatchInto,
// and ApplyTiles untraced and traced — performs zero heap allocations at
// Workers=1.
func TestApplyWarmZeroAllocs(t *testing.T) {
	ev, pm, ctV := applyFixture(t)
	ev.Workers = 1
	res := pm.NewResult()
	batch := []*Result{pm.NewResult(), pm.NewResult()}
	vecs := [][]*rlwe.Ciphertext{ctV, ctV}
	sub := []int{1}
	out := pm.NewResult().Packed[:1]
	sink := &countSink{}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"ApplyInto", func() error { return pm.ApplyInto(res, ctV) }},
		{"ApplyBatchInto", func() error { return pm.ApplyBatchInto(batch, vecs) }},
		{"ApplyTiles/nil-sink", func() error { return pm.ApplyTiles(out, sub, ctV, nil) }},
		{"ApplyTiles/sink", func() error { return pm.ApplyTiles(res.Packed, nil, ctV, sink) }},
	} {
		for i := 0; i < 2; i++ { // warm the pools
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: warm apply allocates %.1f/op, want 0", c.name, allocs)
		}
	}
}
