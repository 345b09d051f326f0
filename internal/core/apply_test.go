package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cham/internal/obs"
	"cham/internal/rlwe"
	"cham/internal/testutil"
)

// countSink is an obs.StageSink counting StageAdd calls per stage. It is
// allocation-free and safe for the parallel row and merge workers.
type countSink struct {
	calls [obs.NumStages]atomic.Int64
}

func (s *countSink) StageAdd(stage int, _ time.Duration) { s.calls[stage].Add(1) }
func (s *countSink) ExemplarLabel() string               { return "0123456789abcdef" }

// applyFixture prepares a two-tile, two-chunk matrix at N=64 (70×96;
// the second tile is short, so padding rows and a partial tree run too)
// and encrypts one vector for it.
func applyFixture(t *testing.T) (*Evaluator, *PreparedMatrix, []*rlwe.Ciphertext) {
	t.Helper()
	p := testParams(t, 64)
	rng := testutil.NewRand(t)
	sk := p.KeyGen(rng)
	ev, err := NewEvaluator(p, rng, sk, p.R.N)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := ev.Prepare(testutil.Matrix(rng, 70, 96, p.T.Q))
	if err != nil {
		t.Fatal(err)
	}
	return ev, pm, EncryptVector(p, rng, sk, testutil.Vector(rng, 96, p.T.Q))
}

// TestTracedApplyParity: a traced ApplyTiles over every tile returns the
// ciphertexts of an untraced ApplyInto bit for bit, and its sink hears
// exactly the stage observations the cham_hmvp_stage_seconds histograms
// gained during that apply — row-loop and pack-tree stages alike — at
// every worker count.
func TestTracedApplyParity(t *testing.T) {
	obsEnable(t)
	ev, pm, ctV := applyFixture(t)
	for _, w := range []int{1, runtime.NumCPU()} {
		ev.Workers = w
		want := pm.NewResult()
		if err := pm.ApplyInto(want, ctV); err != nil {
			t.Fatal(err)
		}
		var before [obs.NumStages]uint64
		for i := range before {
			before[i] = obs.StageHistogram(i).Count()
		}
		sink := &countSink{}
		got := pm.NewResult()
		if err := pm.ApplyTiles(got.Packed, nil, ctV, sink); err != nil {
			t.Fatal(err)
		}
		for ti := range want.Packed {
			if !ctEqual(got.Packed[ti], want.Packed[ti]) {
				t.Errorf("workers=%d tile %d: traced apply differs from ApplyInto", w, ti)
			}
		}
		for i := range before {
			gained := obs.StageHistogram(i).Count() - before[i]
			if heard := uint64(sink.calls[i].Load()); heard != gained {
				t.Errorf("workers=%d stage %s: sink heard %d flushes, histogram gained %d",
					w, obs.StageNames[i], heard, gained)
			}
		}
		for _, st := range []int{obs.StageNTT, obs.StageRowMul, obs.StageExtract, obs.StagePack,
			obs.StagePackModDown, obs.StageDecompose, obs.StageKeySwitch, obs.StageINTT} {
			if sink.calls[st].Load() == 0 {
				t.Errorf("workers=%d: sink never heard stage %s", w, obs.StageNames[st])
			}
		}
	}
}
