package core

// The prepared apply. CHAM runs every HMVP through one macro-pipeline
// whatever the matrix shape; here every entry point — ApplyInto (one
// vector, every tile), ApplyBatchInto (a batch of vectors, every tile)
// and ApplyTiles (one vector, a tile subset, optionally traced) — is the
// same driver over vectors × tiles. It validates the whole call before
// any transform runs (a short batch, a missing column block, an
// unprepared tile or a misshaped output fails with a typed sentinel up
// front instead of a panic or partial work), checks scratch out once,
// and per vector runs the shared stage-1 load and then each listed
// tile's row loop and packing tree. A warm call at Workers=1 performs
// zero heap allocations regardless of the batch size.

import (
	"fmt"
	"time"

	"cham/internal/obs"
	"cham/internal/rlwe"
)

// NewResult allocates a result of the right shape for ApplyInto.
func (pm *PreparedMatrix) NewResult() *Result {
	p := pm.ev.P
	res := &Result{M: pm.m, N: p.R.N, Packed: make([]*rlwe.Ciphertext, len(pm.tiles))}
	for i := range res.Packed {
		res.Packed[i] = &rlwe.Ciphertext{B: p.R.NewPoly(p.NormalLevels), A: p.R.NewPoly(p.NormalLevels)}
	}
	return res
}

// Apply computes A·v for one encrypted vector (the per-vector stages of the
// pipeline only), allocating a fresh Result.
func (pm *PreparedMatrix) Apply(ctV []*rlwe.Ciphertext) (*Result, error) {
	res := pm.NewResult()
	if err := pm.ApplyInto(res, ctV); err != nil {
		return nil, err
	}
	return res, nil
}

// ApplyInto is Apply writing into a caller-owned Result (from NewResult).
// All intermediates come from pooled scratch: a warm call at Workers=1
// does not touch the heap.
func (pm *PreparedMatrix) ApplyInto(res *Result, ctV []*rlwe.Ciphertext) error {
	return pm.apply([][]*rlwe.Ciphertext{ctV}, nil, []*Result{res}, nil, nil)
}

// ApplyBatch computes A·v_k for every vector of the batch, allocating
// fresh Results. vecs[k] must each come from EncryptVector with the
// matrix's column count.
func (pm *PreparedMatrix) ApplyBatch(vecs [][]*rlwe.Ciphertext) ([]*Result, error) {
	res := make([]*Result, len(vecs))
	for k := range res {
		res[k] = pm.NewResult()
	}
	if err := pm.ApplyBatchInto(res, vecs); err != nil {
		return nil, err
	}
	return res, nil
}

// ApplyBatchInto is ApplyBatch writing into caller-owned Results (from
// NewResult, one per vector) — the column blocks of an encrypted
// matrix-matrix product. Scratch is checked out once for the whole batch.
func (pm *PreparedMatrix) ApplyBatchInto(res []*Result, vecs [][]*rlwe.Ciphertext) error {
	return pm.apply(vecs, nil, res, nil, nil)
}

// ApplyTiles computes the listed row tiles of A·v, writing tile tiles[k]'s
// packed ciphertext into out[k]; nil tiles means every tile, in order. It
// is the shard-side apply of the cluster tier and the traced entry point:
// per-stage kernel durations also go to sink (a traced request's
// recorder, which must tolerate concurrent StageAdd calls; nil when
// untraced). Each out entry must be shaped like a NewResult tile.
// Because every tile's ciphertext depends only on its own rows, the
// results are bit-identical to the corresponding entries of a full
// ApplyInto (the gather-merge invariant the cluster tests pin down).
func (pm *PreparedMatrix) ApplyTiles(out []*rlwe.Ciphertext, tiles []int, ctV []*rlwe.Ciphertext, sink obs.StageSink) error {
	return pm.apply([][]*rlwe.Ciphertext{ctV}, tiles, nil, out, sink)
}

// apply is the one prepared-apply driver. Vector k's j-th listed tile
// (every tile when tiles is nil) is written to res[k].Packed[tile], or,
// when res is nil, to out[j] (a tile apply: one vector, a slot list).
func (pm *PreparedMatrix) apply(vecs [][]*rlwe.Ciphertext, tiles []int, res []*Result, out []*rlwe.Ciphertext, sink obs.StageSink) error {
	on := obs.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	rows, err := pm.run(vecs, tiles, res, out, sink)
	if err != nil {
		return countErr(err)
	}
	if on {
		mApplyPrepared.Observe(time.Since(t0).Seconds())
		mAppliesPrepared.Add(uint64(len(vecs)))
		mRows.Add(uint64(rows))
	}
	return nil
}

// run validates and executes one apply, returning the row dot products
// it computed.
func (pm *PreparedMatrix) run(vecs [][]*rlwe.Ciphertext, tiles []int, res []*Result, out []*rlwe.Ciphertext, sink obs.StageSink) (int, error) {
	if err := pm.validate(vecs, tiles, res, out); err != nil {
		return 0, err
	}
	e := pm.ev
	e.ensureInvN()
	sc := e.getApplyScratch(pm.chunks, pm.maxPad)
	defer e.putApplyScratch(sc)
	sc.clk.Attach(sink)
	rows := 0
	for k, ctV := range vecs {
		e.loadVector(sc, ctV)
		for j := range pm.tileCount(tiles) {
			ti := tileAt(tiles, j)
			t := pm.tiles[ti]
			var dst *rlwe.Ciphertext
			if res != nil {
				dst = res[k].Packed[ti]
			} else {
				dst = out[j]
			}
			if err := e.tileApply(dst, sc, t, nil, 0, t.rows, t.mPad); err != nil {
				return 0, err
			}
			rows += t.rows
		}
		if res != nil {
			res[k].M, res[k].N = pm.m, e.P.R.N
		}
	}
	return rows, nil
}

// tileCount is the number of tiles an apply over tiles computes.
func (pm *PreparedMatrix) tileCount(tiles []int) int {
	if tiles == nil {
		return len(pm.tiles)
	}
	return len(tiles)
}

// tileAt is the j-th tile an apply over tiles computes.
func tileAt(tiles []int, j int) int {
	if tiles == nil {
		return j
	}
	return tiles[j]
}

// validate checks a whole apply — every vector, every output and every
// listed tile — before any transform runs; the %w wrapping keeps
// errors.Is on the sentinels working through the per-index context.
func (pm *PreparedMatrix) validate(vecs [][]*rlwe.Ciphertext, tiles []int, res []*Result, out []*rlwe.Ciphertext) error {
	if len(vecs) == 0 {
		return fmt.Errorf("%w: empty batch", ErrVectorLength)
	}
	if res != nil && len(res) != len(vecs) {
		return fmt.Errorf("%w: batch has %d vectors but %d result slots", ErrResultShape, len(vecs), len(res))
	}
	for k, ctV := range vecs {
		err := pm.ev.validateVector(ctV, pm.chunks)
		if err == nil && res != nil {
			err = pm.validateResult(res[k])
		}
		if err != nil {
			if len(vecs) > 1 {
				err = fmt.Errorf("batch vector %d: %w", k, err)
			}
			return err
		}
	}
	n := pm.tileCount(tiles)
	if res == nil && len(out) != n {
		return fmt.Errorf("%w: %d output slots for %d tiles", ErrResultShape, len(out), n)
	}
	for j := range n {
		ti := tileAt(tiles, j)
		if ti < 0 || ti >= len(pm.tiles) {
			return fmt.Errorf("%w: tile %d of %d", ErrTileIndex, ti, len(pm.tiles))
		}
		if pm.tiles[ti] == nil {
			return fmt.Errorf("%w: tile %d (prepared sparsely; PrepareTile fills it in)", ErrTileNotPrepared, ti)
		}
		if res == nil && !pm.ev.tileShaped(out[j]) {
			return fmt.Errorf("%w: output slot %d is nil or misshaped", ErrResultShape, j)
		}
	}
	return nil
}

// validateResult checks one Result's tile count and polynomial shapes.
func (pm *PreparedMatrix) validateResult(res *Result) error {
	if res == nil {
		return fmt.Errorf("%w: nil result; allocate with NewResult", ErrResultShape)
	}
	if len(res.Packed) != len(pm.tiles) {
		return fmt.Errorf("%w: result holds %d tiles, want %d", ErrResultShape, len(res.Packed), len(pm.tiles))
	}
	for ti, ct := range res.Packed {
		if !pm.ev.tileShaped(ct) {
			return fmt.Errorf("%w: result tile %d is nil or misshaped; allocate with NewResult", ErrResultShape, ti)
		}
	}
	return nil
}

// tileShaped reports whether ct can hold one packed output tile: both
// parts present, normal basis, ring degree N.
func (e *Evaluator) tileShaped(ct *rlwe.Ciphertext) bool {
	return ct != nil && ct.B != nil && ct.A != nil &&
		ct.B.Levels() == e.P.NormalLevels && ct.A.Levels() == e.P.NormalLevels &&
		len(ct.B.Coeffs[0]) == e.P.R.N && len(ct.A.Coeffs[0]) == e.P.R.N
}

// validateVector checks one encrypted vector's chunk count and entries:
// every chunk present and over the full augmented basis.
func (e *Evaluator) validateVector(ctV []*rlwe.Ciphertext, chunks int) error {
	if len(ctV) != chunks {
		return fmt.Errorf("%w: matrix has %d column chunks but vector has %d ciphertexts", ErrVectorLength, chunks, len(ctV))
	}
	for c, ct := range ctV {
		if ct == nil || ct.B == nil || ct.A == nil {
			return fmt.Errorf("%w: vector ciphertext %d is nil", ErrVectorLength, c)
		}
		if ct.Levels() != e.P.R.Levels() {
			return fmt.Errorf("%w: vector ciphertext %d", ErrVectorBasis, c)
		}
	}
	return nil
}
