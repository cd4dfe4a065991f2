package ckks

import (
	"math"

	"xehe/internal/ntt"
	"xehe/internal/poly"
	"xehe/internal/xmath"
)

// Evaluator implements the homomorphic operations of Section II-A on
// the host (the serial reference the GPU backend is validated against).
type Evaluator struct {
	params *Parameters
	rlk    *RelinKey
	gks    map[uint64]*GaloisKey
}

// NewEvaluator creates an evaluator with the given relinearization key
// and optional Galois keys.
func NewEvaluator(params *Parameters, rlk *RelinKey, gks ...*GaloisKey) *Evaluator {
	ev := &Evaluator{params: params, rlk: rlk, gks: map[uint64]*GaloisKey{}}
	for _, gk := range gks {
		ev.gks[gk.Galois] = gk
	}
	return ev
}

func (ev *Evaluator) checkPair(a, b *Ciphertext) {
	if a.Level != b.Level {
		panic("ckks: level mismatch")
	}
	if math.Abs(a.Scale-b.Scale) > a.Scale*1e-9 {
		panic("ckks: scale mismatch")
	}
}

// Add returns a + b.
func (ev *Evaluator) Add(a, b *Ciphertext) *Ciphertext {
	ev.checkPair(a, b)
	moduli := ev.params.ModuliAt(a.Level)
	deg := len(a.Value)
	if len(b.Value) > deg {
		deg = len(b.Value)
	}
	out := &Ciphertext{Scale: a.Scale, Level: a.Level}
	for i := 0; i < deg; i++ {
		switch {
		case i < len(a.Value) && i < len(b.Value):
			c := poly.New(ev.params.N, a.Level+1)
			poly.AddInto(c, a.Value[i], b.Value[i], moduli)
			out.Value = append(out.Value, c)
		case i < len(a.Value):
			out.Value = append(out.Value, a.Value[i].Clone())
		default:
			out.Value = append(out.Value, b.Value[i].Clone())
		}
	}
	return out
}

// Mul returns the degree-2 tensor product of two degree-1 ciphertexts
// (Section II-A Mul): (a0b0, a0b1 + a1b0, a1b1), scale multiplied.
func (ev *Evaluator) Mul(a, b *Ciphertext) *Ciphertext {
	ev.checkPair(a, b)
	if a.Degree() != 1 || b.Degree() != 1 {
		panic("ckks: Mul requires degree-1 inputs (relinearize first)")
	}
	moduli := ev.params.ModuliAt(a.Level)
	n := ev.params.N
	d0 := poly.New(n, a.Level+1)
	d1 := poly.New(n, a.Level+1)
	d2 := poly.New(n, a.Level+1)
	poly.MulInto(d0, a.Value[0], b.Value[0], moduli)
	poly.MulInto(d1, a.Value[0], b.Value[1], moduli)
	poly.MAdInto(d1, a.Value[1], b.Value[0], moduli)
	poly.MulInto(d2, a.Value[1], b.Value[1], moduli)
	return &Ciphertext{Value: []*poly.Poly{d0, d1, d2}, Scale: a.Scale * b.Scale, Level: a.Level}
}

// Square is Mul(ct, ct) with one dyadic product saved.
func (ev *Evaluator) Square(ct *Ciphertext) *Ciphertext {
	if ct.Degree() != 1 {
		panic("ckks: Square requires a degree-1 input")
	}
	moduli := ev.params.ModuliAt(ct.Level)
	n := ev.params.N
	d0 := poly.New(n, ct.Level+1)
	d1 := poly.New(n, ct.Level+1)
	d2 := poly.New(n, ct.Level+1)
	poly.MulInto(d0, ct.Value[0], ct.Value[0], moduli)
	poly.MulInto(d1, ct.Value[0], ct.Value[1], moduli)
	poly.AddInto(d1, d1, d1, moduli) // 2*c0*c1
	poly.MulInto(d2, ct.Value[1], ct.Value[1], moduli)
	return &Ciphertext{Value: []*poly.Poly{d0, d1, d2}, Scale: ct.Scale * ct.Scale, Level: ct.Level}
}

// switchKey applies the RNS key-switching procedure to `target` (in
// NTT form) with the given switching key, returning the two
// accumulator polynomials (in NTT form, chain basis at ct level):
//
//  1. iNTT(target); digits d_i = [target]_{q_i} extended to the basis
//     {q_0..q_l, p},
//  2. acc = Σ_i NTT(d_i) ⊙ swk_i (dyadic multiply-accumulate with the
//     fused mad_mod),
//  3. divide by P: res = (acc - [acc_p]) · p^{-1} mod q_j.
//
// This is the O(l²) NTT-heavy kernel that makes Relinearize and Rotate
// NTT-dominated (Fig. 5).
func (ev *Evaluator) switchKey(target *poly.Poly, swk *SwitchKey, level int) (*poly.Poly, *poly.Poly) {
	params := ev.params
	n := params.N
	basis := params.Basis
	moduli := params.ModuliAt(level)
	L := params.MaxLevel()

	// Step 1: back to coefficient form.
	tCoeff := target.Clone()
	poly.INTT(tCoeff, params.TablesAt(level))

	// Accumulators over chain basis + special prime.
	acc0 := poly.New(n, level+1)
	acc1 := poly.New(n, level+1)
	acc0.IsNTT, acc1.IsNTT = true, true
	acc0p := make([]uint64, n) // special-prime component
	acc1p := make([]uint64, n)
	sp := basis.Special
	spTbl := params.SpecialTable

	digit := make([]uint64, n)
	for i := 0; i <= level; i++ {
		di := tCoeff.Coeffs[i]
		// Extend digit i to every chain modulus and transform.
		for j := 0; j <= level; j++ {
			mj := moduli[j]
			tj := params.ChainTables[j]
			if j == i {
				copy(digit, di)
			} else {
				for k := 0; k < n; k++ {
					digit[k] = mj.BarrettReduce(di[k])
				}
			}
			ntt.Forward(digit, tj)
			b := swk.B[i].Coeffs[j]
			a := swk.A[i].Coeffs[j]
			o0, o1 := acc0.Coeffs[j], acc1.Coeffs[j]
			for k := 0; k < n; k++ {
				o0[k] = mj.MAdMod(digit[k], b[k], o0[k])
				o1[k] = mj.MAdMod(digit[k], a[k], o1[k])
			}
		}
		// Special-prime component (swk index L+1).
		for k := 0; k < n; k++ {
			digit[k] = sp.BarrettReduce(di[k])
		}
		ntt.Forward(digit, spTbl)
		b := swk.B[i].Coeffs[L+1]
		a := swk.A[i].Coeffs[L+1]
		for k := 0; k < n; k++ {
			acc0p[k] = sp.MAdMod(digit[k], b[k], acc0p[k])
			acc1p[k] = sp.MAdMod(digit[k], a[k], acc1p[k])
		}
	}

	// Step 3: mod-down by P. Convert the special component to
	// coefficient form once, then fold into every chain modulus.
	ntt.Inverse(acc0p, spTbl)
	ntt.Inverse(acc1p, spTbl)
	tmp := make([]uint64, n)
	for j := 0; j <= level; j++ {
		mj := moduli[j]
		tj := params.ChainTables[j]
		pInv := basis.SpecialInvModQi(L, j)
		for _, pair := range [2]struct {
			accP []uint64
			acc  *poly.Poly
		}{{acc0p, acc0}, {acc1p, acc1}} {
			for k := 0; k < n; k++ {
				tmp[k] = mj.BarrettReduce(pair.accP[k])
			}
			ntt.Forward(tmp, tj)
			o := pair.acc.Coeffs[j]
			for k := 0; k < n; k++ {
				o[k] = mj.MulMod(xmath.SubMod(o[k], tmp[k], mj.Value), pInv)
			}
		}
	}
	return acc0, acc1
}

// Relinearize reduces a degree-2 ciphertext back to degree 1 using the
// relinearization key.
func (ev *Evaluator) Relinearize(ct *Ciphertext) *Ciphertext {
	if ct.Degree() != 2 {
		panic("ckks: Relinearize expects a degree-2 ciphertext")
	}
	if ev.rlk == nil {
		panic("ckks: evaluator has no relinearization key")
	}
	moduli := ev.params.ModuliAt(ct.Level)
	r0, r1 := ev.switchKey(ct.Value[2], &ev.rlk.SwitchKey, ct.Level)
	c0 := poly.New(ev.params.N, ct.Level+1)
	c1 := poly.New(ev.params.N, ct.Level+1)
	poly.AddInto(c0, ct.Value[0], r0, moduli)
	poly.AddInto(c1, ct.Value[1], r1, moduli)
	return &Ciphertext{Value: []*poly.Poly{c0, c1}, Scale: ct.Scale, Level: ct.Level}
}

// Rescale divides the ciphertext by the last chain modulus, dropping
// one level and keeping the scale near Δ (Section II-A RS).
func (ev *Evaluator) Rescale(ct *Ciphertext) *Ciphertext {
	level := ct.Level
	if level == 0 {
		panic("ckks: cannot rescale at level 0")
	}
	params := ev.params
	basis := params.Basis
	lastTbl := params.ChainTables[level]
	qLast := basis.Moduli[level].Value
	n := params.N

	out := &Ciphertext{Scale: ct.Scale / float64(qLast), Level: level - 1}
	tmp := make([]uint64, n)
	for _, comp := range ct.Value {
		// Bring the last component to coefficient form.
		last := append([]uint64(nil), comp.Coeffs[level]...)
		ntt.Inverse(last, lastTbl)
		dst := poly.New(n, level)
		dst.IsNTT = true
		for j := 0; j < level; j++ {
			mj := basis.Moduli[j]
			tj := params.ChainTables[j]
			for k := 0; k < n; k++ {
				tmp[k] = mj.BarrettReduce(last[k])
			}
			ntt.Forward(tmp, tj)
			inv := basis.InvLastModQi(level, j)
			src := comp.Coeffs[j]
			d := dst.Coeffs[j]
			for k := 0; k < n; k++ {
				d[k] = mj.MulMod(xmath.SubMod(src[k], tmp[k], mj.Value), inv)
			}
		}
		out.Value = append(out.Value, dst)
	}
	return out
}

// ModSwitch drops the last RNS component without scaling the message
// (exact in RNS form: the remaining residues already represent the
// ciphertext modulo the smaller Q).
func (ev *Evaluator) ModSwitch(ct *Ciphertext) *Ciphertext {
	if ct.Level == 0 {
		panic("ckks: cannot mod-switch at level 0")
	}
	out := ct.Clone()
	for _, c := range out.Value {
		c.DropLast()
	}
	out.Level--
	return out
}

// Rotate cyclically rotates the message slots by k using the Galois
// key for 5^k mod 2N.
func (ev *Evaluator) Rotate(ct *Ciphertext, k int) *Ciphertext {
	galois := ev.params.GaloisElement(k)
	gk, ok := ev.gks[galois]
	if !ok {
		panic("ckks: missing Galois key for this rotation")
	}
	if ct.Degree() != 1 {
		panic("ckks: Rotate expects a degree-1 ciphertext")
	}
	params := ev.params
	moduli := params.ModuliAt(ct.Level)
	tbls := params.TablesAt(ct.Level)
	n := params.N

	// Apply the automorphism in coefficient form.
	c0 := ct.Value[0].Clone()
	c1 := ct.Value[1].Clone()
	poly.INTT(c0, tbls)
	poly.INTT(c1, tbls)
	r0 := poly.New(n, ct.Level+1)
	r1 := poly.New(n, ct.Level+1)
	poly.Automorphism(r0, c0, galois, moduli)
	poly.Automorphism(r1, c1, galois, moduli)
	poly.NTT(r0, tbls)
	poly.NTT(r1, tbls)

	// Key-switch the c1 part from s(x^g) to s.
	k0, k1 := ev.switchKey(r1, &gk.SwitchKey, ct.Level)
	poly.AddInto(k0, k0, r0, moduli)
	return &Ciphertext{Value: []*poly.Poly{k0, k1}, Scale: ct.Scale, Level: ct.Level}
}
