package ring

// Hot-path support: pooled polynomial buffers, fused multiply-accumulate
// kernels (Shoup companion tables for fixed key-switch operands, and the
// delayed-reduction WideAcc for the row dot product), and an in-place
// RESCALE (ModDownInto) with cached per-limb constants. Together these let
// the HMVP pipeline (core.MatVec / core.PreparedMatrix) run with zero heap
// allocations after warm-up, the software analogue of CHAM's
// buffer-resident dataflow.

import "math/bits"

// GetPoly borrows a polynomial with the given limb count from the ring's
// pool. The coefficients are ARBITRARY (not zeroed) and IsNTT is reset to
// false; callers must fully overwrite the rows they use, or call Zero.
// Return the buffer with PutPoly once done.
func (r *Ring) GetPoly(levels int) *Poly {
	if levels < 1 || levels > len(r.Moduli) {
		panic("ring: levels out of range")
	}
	if p, ok := r.polyPools[levels-1].Get().(*Poly); ok {
		p.IsNTT = false
		return p
	}
	return r.NewPoly(levels)
}

// PutPoly returns a polynomial obtained from GetPoly (or NewPoly) to the
// pool. The caller must not use p afterwards.
func (r *Ring) PutPoly(p *Poly) {
	if p == nil {
		return
	}
	r.polyPools[len(p.Coeffs)-1].Put(p)
}

// getScratch borrows one N-word row buffer; see putScratch.
func (r *Ring) getScratch() *[]uint64 {
	if p, ok := r.scratch.Get().(*[]uint64); ok {
		return p
	}
	buf := make([]uint64, r.N)
	return &buf
}

func (r *Ring) putScratch(p *[]uint64) { r.scratch.Put(p) }

// CopyFrom copies o's limbs and domain flag into p. Level counts must match.
func (p *Poly) CopyFrom(o *Poly) {
	if len(p.Coeffs) != len(o.Coeffs) {
		panic("ring: level mismatch")
	}
	for l := range p.Coeffs {
		copy(p.Coeffs[l], o.Coeffs[l])
	}
	p.IsNTT = o.IsNTT
}

// MulCoeffAdd sets out += a ∘ b, the fused multiply-accumulate form of
// MulCoeff. out must already hold reduced residues in the same domain.
func (r *Ring) MulCoeffAdd(out, a, b *Poly) {
	lv := sameLevels(out, a, b)
	sameDomain(a, b)
	for l := 0; l < lv; l++ {
		m := r.Moduli[l]
		ra, rb, ro := a.Coeffs[l], b.Coeffs[l], out.Coeffs[l]
		for i := range ro {
			ro[i] = m.Add(ro[i], m.MulBarrett(ra[i], rb[i]))
		}
	}
}

// ShoupPrecompPoly returns the Shoup companion table of p — one word per
// coefficient — for use as the fixed operand of MulCoeffShoup and
// MulCoeffShoupAdd. Worth computing once whenever p multiplies more than a
// couple of polynomials (switching keys).
func (r *Ring) ShoupPrecompPoly(p *Poly) [][]uint64 {
	out := make([][]uint64, p.Levels())
	backing := make([]uint64, p.Levels()*r.N)
	for l := range out {
		out[l], backing = backing[:r.N], backing[r.N:]
		m := r.Moduli[l]
		for i, v := range p.Coeffs[l] {
			out[l][i] = m.ShoupPrecomp(v)
		}
	}
	return out
}

// MulCoeffShoup sets out = a ∘ b where bShoup = ShoupPrecompPoly(b).
// Roughly twice the throughput of MulCoeff on the same operands.
func (r *Ring) MulCoeffShoup(out, a, b *Poly, bShoup [][]uint64) {
	lv := sameLevels(out, a, b)
	sameDomain(a, b)
	for l := 0; l < lv; l++ {
		m := r.Moduli[l]
		ra, rb, rs, ro := a.Coeffs[l], b.Coeffs[l], bShoup[l], out.Coeffs[l]
		for i := range ro {
			ro[i] = m.MulShoup(ra[i], rb[i], rs[i])
		}
	}
	out.IsNTT = a.IsNTT
}

// MulCoeffShoupAdd sets out += a ∘ b where bShoup = ShoupPrecompPoly(b).
func (r *Ring) MulCoeffShoupAdd(out, a, b *Poly, bShoup [][]uint64) {
	lv := sameLevels(out, a, b)
	sameDomain(a, b)
	for l := 0; l < lv; l++ {
		m := r.Moduli[l]
		ra, rb, rs, ro := a.Coeffs[l], b.Coeffs[l], bShoup[l], out.Coeffs[l]
		for i := range ro {
			ro[i] = m.Add(ro[i], m.MulShoup(ra[i], rb[i], rs[i]))
		}
	}
}

// MulCoeffShoupPair sets out = a0 ∘ b0 + a1 ∘ b1 in one sweep — the
// two-digit key-switch accumulation fused so out is written once instead
// of once per digit. s0/s1 are the Shoup companions of b0/b1.
func (r *Ring) MulCoeffShoupPair(out, a0, b0 *Poly, s0 [][]uint64, a1, b1 *Poly, s1 [][]uint64) {
	lv := sameLevels(out, a0, b0, a1, b1)
	sameDomain(a0, b0, a1, b1)
	for l := 0; l < lv; l++ {
		m := r.Moduli[l]
		ra0, rb0, rs0 := a0.Coeffs[l], b0.Coeffs[l], s0[l]
		ra1, rb1, rs1 := a1.Coeffs[l], b1.Coeffs[l], s1[l]
		ro := out.Coeffs[l]
		for i := range ro {
			ro[i] = m.Add(m.MulShoup(ra0[i], rb0[i], rs0[i]), m.MulShoup(ra1[i], rb1[i], rs1[i]))
		}
	}
	out.IsNTT = a0.IsNTT
}

// MulCoeffShoupPairAdd sets out += a0 ∘ b0 + a1 ∘ b1 in one sweep (the
// accumulating form of MulCoeffShoupPair).
func (r *Ring) MulCoeffShoupPairAdd(out, a0, b0 *Poly, s0 [][]uint64, a1, b1 *Poly, s1 [][]uint64) {
	lv := sameLevels(out, a0, b0, a1, b1)
	sameDomain(a0, b0, a1, b1)
	for l := 0; l < lv; l++ {
		m := r.Moduli[l]
		ra0, rb0, rs0 := a0.Coeffs[l], b0.Coeffs[l], s0[l]
		ra1, rb1, rs1 := a1.Coeffs[l], b1.Coeffs[l], s1[l]
		ro := out.Coeffs[l]
		for i := range ro {
			t := m.Add(m.MulShoup(ra0[i], rb0[i], rs0[i]), m.MulShoup(ra1[i], rb1[i], rs1[i]))
			ro[i] = m.Add(ro[i], t)
		}
	}
}

// WideAcc is the delayed-reduction accumulator of one row dot product
// Σ_c (b_c, a_c) ∘ w_c — the row MAC of the HMVP pipeline, where a row
// polynomial w_c multiplies both halves of vector ciphertext c. Per limb
// it holds N 128-bit lanes for the coefficient-wise a-part and one 128-bit
// scalar for the b-part, of which only the coefficient sum is ever needed
// (EXTRACT at index 0). Every product is one bits.Mul64 added into 128
// bits; each lane is reduced once, by ReduceWide, when the row is done.
//
// The 128-bit sums must stay below q·2^64, the BarrettReduce128 input
// bound. Products of reduced residues are below q², so a sum of up to
// ⌊(2^64-1)/q⌋ of them is safe; when a lane reaches that budget it is
// folded back to its residue (which then counts as one term) before the
// next product lands. For the CHAM moduli (< 2^39) the budget exceeds
// 2^25 terms and no fold ever runs; a 62-bit modulus folds every few.
// A WideAcc must not be shared between goroutines.
type WideAcc struct {
	hi, lo       [][]uint64 // [limb][coeff] a-part lanes
	dotHi, dotLo []uint64   // [limb] b-part sum
	terms        []uint64   // [limb] products per a-part lane since the last fold
	dotTerms     []uint64   // [limb] products in the b-part sum since the last fold
	budget       []uint64   // [limb] ⌊(2^64-1)/q_l⌋, the fold point
	isNTT        bool       // domain of the operands, carried to ReduceWide's output
}

// NewWideAcc returns a zeroed accumulator over the full basis.
func (r *Ring) NewWideAcc() *WideAcc {
	lv := len(r.Moduli)
	acc := &WideAcc{
		hi:       make([][]uint64, lv),
		lo:       make([][]uint64, lv),
		dotHi:    make([]uint64, lv),
		dotLo:    make([]uint64, lv),
		terms:    make([]uint64, lv),
		dotTerms: make([]uint64, lv),
		budget:   make([]uint64, lv),
	}
	lanes := make([]uint64, 2*lv*r.N)
	for l, m := range r.Moduli {
		acc.hi[l], lanes = lanes[:r.N:r.N], lanes[r.N:]
		acc.lo[l], lanes = lanes[:r.N:r.N], lanes[r.N:]
		acc.budget[l] = ^uint64(0) / m.Q
	}
	return acc
}

// MulAccWide adds one chunk of a row dot product into acc: the a-part
// lanes gain a ∘ w and the b-part sum gains Σ_i b_i·w_i, per limb, with
// no modular reduction. Every residue of b, a and w must be reduced
// (below q_l): the fold budget is counted in products of reduced
// operands.
func (r *Ring) MulAccWide(acc *WideAcc, b, a, w *Poly) {
	lv := sameLevels(b, a, w)
	sameDomain(b, a, w)
	acc.isNTT = w.IsNTT
	for l := 0; l < lv; l++ {
		m := r.Moduli[l]
		budget := acc.budget[l]
		hi, lo := acc.hi[l], acc.lo[l]
		if acc.terms[l] == budget {
			for i := range lo {
				lo[i], hi[i] = m.BarrettReduce128(hi[i], lo[i]), 0
			}
			acc.terms[l] = 1
		}
		acc.terms[l]++
		rb, ra, rw := b.Coeffs[l], a.Coeffs[l], w.Coeffs[l]
		sHi, sLo := acc.dotHi[l], acc.dotLo[l]
		for i := 0; i < len(lo); {
			if acc.dotTerms[l] == budget {
				sHi, sLo = 0, m.BarrettReduce128(sHi, sLo)
				acc.dotTerms[l] = 1
			}
			end := len(lo)
			if room := budget - acc.dotTerms[l]; uint64(end-i) > room {
				end = i + int(room)
			}
			acc.dotTerms[l] += uint64(end - i)
			sHi, sLo = mulAccWideSpan(hi[i:end], lo[i:end], rb[i:end], ra[i:end], rw[i:end], sHi, sLo)
			i = end
		}
		acc.dotHi[l], acc.dotLo[l] = sHi, sLo
	}
}

// mulAccWideSpan is MulAccWide's inner loop over one span of a limb:
// hi:lo[i] += a[i]·w[i] and the returned sHi:sLo = sHi:sLo + Σ b[i]·w[i],
// all in unreduced 128-bit arithmetic. The caller keeps every sum within
// its fold budget.
func mulAccWideSpan(hi, lo, b, a, w []uint64, sHi, sLo uint64) (uint64, uint64) {
	n := len(lo)
	hi, b, a, w = hi[:n], b[:n], a[:n], w[:n]
	for i := range lo {
		wi := w[i]
		ph, pl := bits.Mul64(a[i], wi)
		var c uint64
		lo[i], c = bits.Add64(lo[i], pl, 0)
		hi[i] += ph + c
		ph, pl = bits.Mul64(b[i], wi)
		sLo, c = bits.Add64(sLo, pl, 0)
		sHi += ph + c
	}
	return sHi, sLo
}

// ReduceWide finishes a row: each a-part lane is reduced once into out
// (canonical residues, in the operands' domain) and each limb's b-part sum
// into dot[l]. acc is left zeroed, ready for the next row.
func (r *Ring) ReduceWide(out *Poly, dot []uint64, acc *WideAcc) {
	for l := range out.Coeffs {
		m := r.Moduli[l]
		hi, lo, ro := acc.hi[l], acc.lo[l], out.Coeffs[l]
		lo = lo[:len(ro)]
		hi = hi[:len(ro)]
		for i := range ro {
			ro[i] = m.BarrettReduce128(hi[i], lo[i])
			hi[i], lo[i] = 0, 0
		}
		dot[l] = m.BarrettReduce128(acc.dotHi[l], acc.dotLo[l])
		acc.dotHi[l], acc.dotLo[l] = 0, 0
		acc.terms[l], acc.dotTerms[l] = 0, 0
	}
	out.IsNTT = acc.isNTT
}

// CopyReduced copies p into out (same level count) with every residue
// brought into [0, q_l) — how operands enter the delayed-reduction
// kernels, whose overflow budget assumes reduced inputs. Reduced residues
// pass through unchanged, so CopyReduced matches CopyFrom on them.
func (r *Ring) CopyReduced(out, p *Poly) {
	sameLevels(out, p)
	for l := range p.Coeffs {
		m := r.Moduli[l]
		rp, ro := p.Coeffs[l], out.Coeffs[l]
		ro = ro[:len(rp)]
		for i, v := range rp {
			if v >= m.Q {
				v = m.ReduceBarrett(v)
			}
			ro[i] = v
		}
	}
	out.IsNTT = p.IsNTT
}

// ModDownScalar applies the ModDown rounding division to a single
// coefficient position held as per-limb residues: beta[0:lv-1] is
// overwritten with round(x/q_{lv-1}) in the shortened basis, where x is
// the value represented by beta[0:lv]. This is the scalar RESCALE used
// when only one coefficient of a polynomial survives (LWE extraction at
// index 0).
func (r *Ring) ModDownScalar(beta []uint64, lv int) {
	msp := r.Moduli[lv-1]
	x := beta[lv-1]
	halfP := msp.Q / 2
	for l := 0; l < lv-1; l++ {
		ml := r.Moduli[l]
		var d uint64
		if x > halfP {
			d = ml.Add(beta[l], ml.ReduceBarrett(msp.Q-x))
		} else {
			d = ml.Sub(beta[l], ml.ReduceBarrett(x))
		}
		beta[l] = ml.MulShoup(d, r.modDownInv[lv-1][l], r.modDownInvShoup[lv-1][l])
	}
}

// ModDownInto is ModDown writing into a caller-supplied polynomial with one
// fewer limb: out = round(p / q_last) over the remaining basis, using the
// constants cached at ring construction and division-free centred lifts.
// This is the allocation-free RESCALE the pipeline loops call.
func (r *Ring) ModDownInto(out, p *Poly) {
	lv := p.Levels()
	if lv < 2 {
		panic("ring: nothing to drop")
	}
	if p.IsNTT {
		panic("ring: ModDown requires coefficient domain")
	}
	if out.Levels() != lv-1 {
		panic("ring: ModDown level mismatch")
	}
	msp := r.Moduli[lv-1] // the special modulus being divided out
	spRow := p.Coeffs[lv-1][:r.N]
	halfP := msp.Q / 2
	for l := 0; l < lv-1; l++ {
		ml := r.Moduli[l]
		pInv := r.modDownInv[lv-1][l]
		pp := r.modDownInvShoup[lv-1][l]
		twoQ := 2 * ml.Q
		qspL := ml.ReduceBarrett(msp.Q) // q_sp mod q_l
		ra := p.Coeffs[l][:r.N]
		ro := out.Coeffs[l][:r.N]
		for i := range ro {
			// d ≡ x_l - [x_sp centred] in limb l. Branch-free: always
			// subtract the reduced residue of x_sp, then add back q_sp
			// (mod q_l) exactly when the centred lift is negative — the
			// mask is the sign bit of halfP - x, so the 50/50-taken branch
			// of the centred comparison never reaches the predictor.
			// d < 4q (< 2^64 for q < 2^62); MulShoup accepts any uint64
			// and restores canonical form.
			x := spRow[i]
			red := ml.ReduceBarrett(x)
			neg := uint64(int64(halfP-x) >> 63) // all ones iff x > halfP
			d := ra[i] + twoQ - red + (neg & qspL)
			ro[i] = ml.MulShoup(d, pInv, pp)
		}
	}
	out.IsNTT = false
}
