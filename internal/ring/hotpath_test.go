package ring

import (
	"math/bits"
	"math/rand"
	"testing"

	"cham/internal/mod"
)

// wideRef is the modular reference for one row dot product over chunks
// (b_c, a_c, w_c): the a-part Σ_c a_c ∘ w_c by MulCoeff and modular adds,
// and per limb the b-part Σ_c Σ_i b_c[i]·w_c[i] mod q_l.
func wideRef(r *Ring, b, a, w []*Poly) (*Poly, []uint64) {
	lv := w[0].Levels()
	outA := r.NewPoly(lv)
	outA.IsNTT = w[0].IsNTT
	prod := r.NewPoly(lv)
	dot := make([]uint64, lv)
	for c := range w {
		r.MulCoeff(prod, a[c], w[c])
		r.Add(outA, outA, prod)
		r.MulCoeff(prod, b[c], w[c])
		for l, m := range r.Moduli[:lv] {
			for _, v := range prod.Coeffs[l] {
				dot[l] = m.Add(dot[l], v)
			}
		}
	}
	return outA, dot
}

// wideCheck runs one row through acc and compares it with wideRef.
func wideCheck(t *testing.T, r *Ring, acc *WideAcc, b, a, w []*Poly) {
	t.Helper()
	for c := range w {
		r.MulAccWide(acc, b[c], a[c], w[c])
	}
	gotA := r.NewPoly(w[0].Levels())
	gotDot := make([]uint64, w[0].Levels())
	r.ReduceWide(gotA, gotDot, acc)
	wantA, wantDot := wideRef(r, b, a, w)
	if !gotA.Equal(wantA) {
		t.Fatalf("%d chunks: a-part differs from MulCoeff accumulation", len(w))
	}
	for l := range wantDot {
		if gotDot[l] != wantDot[l] {
			t.Fatalf("%d chunks limb %d (q=%d): b-part sum %d, want %d",
				len(w), l, r.Moduli[l].Q, gotDot[l], wantDot[l])
		}
	}
}

// widePolys returns k polynomials over r's full basis, uniformly random or,
// when extreme, every residue q_l-1 (the largest product the fold budget
// has to absorb).
func widePolys(r *Ring, rng *rand.Rand, k int, extreme bool) []*Poly {
	ps := make([]*Poly, k)
	for c := range ps {
		ps[c] = r.NewPoly(r.Levels())
		for l, m := range r.Moduli {
			for i := range ps[c].Coeffs[l] {
				if extreme {
					ps[c].Coeffs[l][i] = m.Q - 1
				} else {
					ps[c].Coeffs[l][i] = rng.Uint64() % m.Q
				}
			}
		}
		ps[c].IsNTT = true
	}
	return ps
}

// TestMulAccWideFoldBudget: the delayed-reduction row MAC matches the
// modular MulCoeff accumulation for 60-, 61- and 62-bit NTT-friendly
// primes, whose fold budget ⌊(2^64-1)/q⌋ is a handful of products, at
// chunk counts up to and well past the fold point — the a-part folds
// every few chunks and the b-part many times per chunk. One accumulator
// serves every row, so ReduceWide's reset is exercised too.
func TestMulAccWideFoldBudget(t *testing.T) {
	const n, maxChunks = 16, 17
	var moduli []uint64
	for _, logQ := range []uint{62, 61, 60} {
		qs, err := mod.NTTFriendlyPrimes(logQ, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		moduli = append(moduli, qs...)
	}
	r, err := New(n, moduli)
	if err != nil {
		t.Fatal(err)
	}
	acc := r.NewWideAcc()
	for l, m := range r.Moduli {
		if acc.budget[l] >= maxChunks {
			t.Fatalf("limb %d: budget %d does not force a-part folds at %d chunks", l, acc.budget[l], maxChunks)
		}
		t.Logf("q=%d (%d bits): fold every %d products", m.Q, bits.Len64(m.Q), acc.budget[l])
	}
	rng := rand.New(rand.NewSource(1))
	for _, extreme := range []bool{false, true} {
		for _, chunks := range []int{1, 3, 4, 5, 8, 9, maxChunks} {
			b := widePolys(r, rng, chunks, extreme)
			a := widePolys(r, rng, chunks, extreme)
			w := widePolys(r, rng, chunks, extreme)
			wideCheck(t, r, acc, b, a, w)
		}
	}
}

// TestCopyReduced: out-of-range residues come back canonical, reduced
// ones unchanged, and the domain flag carries over.
func TestCopyReduced(t *testing.T) {
	r := chamRing(t, 32)
	rng := rand.New(rand.NewSource(2))
	p := randPoly(r, rng, 3)
	p.IsNTT = true
	shifted := p.Copy()
	for l, m := range r.Moduli {
		for i := range shifted.Coeffs[l] {
			shifted.Coeffs[l][i] += uint64(i%3) * m.Q
		}
	}
	shifted.Coeffs[0][0] = ^uint64(0)
	p.Coeffs[0][0] = r.Moduli[0].ReduceBarrett(^uint64(0))
	got := r.NewPoly(3)
	r.CopyReduced(got, shifted)
	if !got.Equal(p) || !got.IsNTT {
		t.Fatal("CopyReduced did not canonicalize residues")
	}
}

// FuzzMulAccWide: for a random prime q ≡ 1 (mod 2N) of up to 62 bits, a
// random chunk count and random reduced residues (or all q-1), the
// delayed-reduction MAC equals the modular reference.
func FuzzMulAccWide(f *testing.F) {
	const n = 8
	f.Add(uint8(62), uint8(9), int64(1), false)
	f.Add(uint8(62), uint8(40), int64(2), true)
	f.Add(uint8(39), uint8(32), int64(3), false)
	f.Add(uint8(6), uint8(1), int64(4), true)
	f.Fuzz(func(t *testing.T, logQ, chunksRaw uint8, seed int64, extreme bool) {
		logBits := max(6, int(logQ)%(mod.MaxModulusBits+1)) // [6, 62]
		rng := rand.New(rand.NewSource(seed))
		q := randNTTPrime(rng, logBits, 2*n)
		r, err := New(n, []uint64{q})
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		chunks := 1 + int(chunksRaw)%64
		b := widePolys(r, rng, chunks, extreme)
		a := widePolys(r, rng, chunks, extreme)
		w := widePolys(r, rng, chunks, extreme)
		wideCheck(t, r, r.NewWideAcc(), b, a, w)
	})
}

// randNTTPrime returns the largest prime q ≡ 1 (mod 16) at or below a
// random logBits-bit value (logBits ≥ 6, so the descent stops at 17 at
// the latest).
func randNTTPrime(rng *rand.Rand, logBits, step int) uint64 {
	v := rng.Uint64()>>(64-uint(logBits)) | 1<<(uint(logBits)-1)
	q := (v-1)/uint64(step)*uint64(step) + 1
	for !mod.IsPrime(q) {
		q -= uint64(step)
	}
	return q
}
