// Package poly implements RNS polynomials in R_q = Z_q[x]/(x^N+1) and
// the coefficient-wise host operations the CKKS scheme is built from.
// The GPU backend (internal/core) mirrors these operations as simulated
// kernels; this package is the functional reference.
package poly

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"xehe/internal/ntt"
	"xehe/internal/xmath"
)

// Poly is an RNS polynomial: Coeffs[i][j] is coefficient j of the
// residue polynomial modulo q_i. IsNTT tracks the representation
// domain (CKKS ciphertexts normally live in the NTT domain).
type Poly struct {
	N      int
	Coeffs [][]uint64
	IsNTT  bool
}

// New allocates a zero polynomial with `levels+1` RNS components.
func New(n, components int) *Poly {
	p := &Poly{N: n, Coeffs: make([][]uint64, components)}
	backing := make([]uint64, n*components)
	for i := range p.Coeffs {
		p.Coeffs[i] = backing[i*n : (i+1)*n]
	}
	return p
}

// Components returns the number of RNS components.
func (p *Poly) Components() int { return len(p.Coeffs) }

// FromData wraps a flat [components][n] slice as a Poly without
// copying — used by the GPU backend to view device buffers.
func FromData(n, components int, data []uint64) *Poly {
	return &Poly{N: n, Coeffs: Rows(n, components, data)}
}

// Rows returns the component rows of FromData: data cut into
// components slices of n words each.
func Rows(n, components int, data []uint64) [][]uint64 {
	if len(data) < n*components {
		panic("poly: backing slice too short")
	}
	rows := make([][]uint64, components)
	for i := range rows {
		rows[i] = data[i*n : (i+1)*n]
	}
	return rows
}

// Data returns the contiguous flat backing of the polynomial
// ([component][coefficient] order). It panics if the components are
// not contiguous in memory (polys built by New and FromData always
// are), since the GPU NTT engine requires a flat batch layout.
func (p *Poly) Data() []uint64 {
	n := p.N
	total := n * len(p.Coeffs)
	if cap(p.Coeffs[0]) < total {
		panic("poly: non-contiguous polynomial")
	}
	flat := p.Coeffs[0][:total:total]
	for i := range p.Coeffs {
		if &flat[i*n] != &p.Coeffs[i][0] {
			panic("poly: non-contiguous polynomial")
		}
	}
	return flat
}

// Clone deep-copies the polynomial.
func (p *Poly) Clone() *Poly {
	q := New(p.N, len(p.Coeffs))
	for i := range p.Coeffs {
		copy(q.Coeffs[i], p.Coeffs[i])
	}
	q.IsNTT = p.IsNTT
	return q
}

// DropLast removes the last RNS component (modulus switching).
func (p *Poly) DropLast() { p.Coeffs = p.Coeffs[:len(p.Coeffs)-1] }

// Equal reports coefficient-wise equality.
func (p *Poly) Equal(q *Poly) bool {
	if p.N != q.N || len(p.Coeffs) != len(q.Coeffs) || p.IsNTT != q.IsNTT {
		return false
	}
	for i := range p.Coeffs {
		for j := range p.Coeffs[i] {
			if p.Coeffs[i][j] != q.Coeffs[i][j] {
				return false
			}
		}
	}
	return true
}

// eachRow runs f(i) for every row i < rows on up to GOMAXPROCS
// goroutines, the caller's among them, and returns once all rows are
// done. Rows are independent RNS residues written to disjoint slices,
// so the result is the same however they are split. The add, sub, neg,
// product and transform passes below run their rows through it.
func eachRow(rows int, f func(i int)) {
	workers := min(rows, runtime.GOMAXPROCS(0))
	if workers <= 1 {
		for i := 0; i < rows; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	run := func() {
		for i := int(next.Add(1) - 1); i < rows; i = int(next.Add(1) - 1) {
			f(i)
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}

// AddInto sets dst = a + b (component-wise, same moduli).
func AddInto(dst, a, b *Poly, moduli []xmath.Modulus) {
	eachRow(len(dst.Coeffs), func(i int) {
		moduli[i].AddRow(dst.Coeffs[i], a.Coeffs[i], b.Coeffs[i])
	})
	dst.IsNTT = a.IsNTT
}

// SubInto sets dst = a - b.
func SubInto(dst, a, b *Poly, moduli []xmath.Modulus) {
	eachRow(len(dst.Coeffs), func(i int) {
		p := moduli[i].Value
		da, db, dd := a.Coeffs[i], b.Coeffs[i], dst.Coeffs[i]
		for j := range dd {
			dd[j] = xmath.SubMod(da[j], db[j], p)
		}
	})
	dst.IsNTT = a.IsNTT
}

// NegInto sets dst = -a.
func NegInto(dst, a *Poly, moduli []xmath.Modulus) {
	eachRow(len(dst.Coeffs), func(i int) {
		p := moduli[i].Value
		da, dd := a.Coeffs[i], dst.Coeffs[i]
		for j := range dd {
			dd[j] = xmath.NegMod(da[j], p)
		}
	})
	dst.IsNTT = a.IsNTT
}

// MulInto sets dst = a ⊙ b (dyadic product; inputs must be in NTT form).
func MulInto(dst, a, b *Poly, moduli []xmath.Modulus) {
	eachRow(len(dst.Coeffs), func(i int) {
		moduli[i].MulAddRow(dst.Coeffs[i], a.Coeffs[i], b.Coeffs[i], nil)
	})
	dst.IsNTT = a.IsNTT
}

// MAdInto sets dst = dst + a ⊙ b using the fused mad_mod operation
// (one reduction per multiply-accumulate, Section III-A.1).
func MAdInto(dst, a, b *Poly, moduli []xmath.Modulus) {
	eachRow(len(dst.Coeffs), func(i int) {
		moduli[i].MulAddRow(dst.Coeffs[i], a.Coeffs[i], b.Coeffs[i], dst.Coeffs[i])
	})
}

// NTT transforms every component to the NTT domain in place.
func NTT(p *Poly, tbls []*ntt.Tables) {
	if p.IsNTT {
		panic("poly: already in NTT form")
	}
	eachRow(len(p.Coeffs), func(i int) { ntt.Forward(p.Coeffs[i], tbls[i]) })
	p.IsNTT = true
}

// INTT transforms every component back to coefficient form in place.
func INTT(p *Poly, tbls []*ntt.Tables) {
	if !p.IsNTT {
		panic("poly: not in NTT form")
	}
	eachRow(len(p.Coeffs), func(i int) { ntt.Inverse(p.Coeffs[i], tbls[i]) })
	p.IsNTT = false
}

// Automorphism applies the Galois map x -> x^galois to a polynomial in
// coefficient form, negacyclically: coefficient i moves to index
// (i*galois mod 2N), with sign flip when the destination wraps past N.
// This is the rotation primitive of the CKKS Rotate routine.
func Automorphism(dst, a *Poly, galois uint64, moduli []xmath.Modulus) {
	if a.IsNTT {
		panic("poly: automorphism requires coefficient form")
	}
	n := uint64(a.N)
	twoN := 2 * n
	for i := range dst.Coeffs {
		p := moduli[i].Value
		da, dd := a.Coeffs[i], dst.Coeffs[i]
		for j := uint64(0); j < n; j++ {
			idx := (j * galois) % twoN
			v := da[j]
			if idx >= n {
				idx -= n
				v = xmath.NegMod(v, p)
			}
			dd[idx] = v
		}
	}
	dst.IsNTT = false
}

// GaloisPermutationNTT returns the table that applies x -> x^galois to
// a polynomial already in NTT form (SEAL's apply_galois_ntt). Slot i of
// the bit-reversed transform holds the evaluation at ψ^(2·brv(i)+1);
// the automorphism sends it to the evaluation at that exponent times
// galois, which is slot
//
//	perm[i] = brv(((galois·(2·brv(i)+1)) mod 2N) >> 1)
//
// of the input. No value changes sign or modulus, so one table serves
// every RNS component; apply it with AutomorphismNTT.
func GaloisPermutationNTT(n int, galois uint64) []uint32 {
	logN := bits.Len(uint(n)) - 1
	mask := uint64(2*n - 1)
	perm := make([]uint32, n)
	for i := range perm {
		e := (galois * (2*xmath.ReverseBits(uint64(i), logN) + 1)) & mask
		perm[i] = uint32(xmath.ReverseBits(e>>1, logN))
	}
	return perm
}

// AutomorphismNTT gathers dst[i] = src[perm[i]] over len(perm) slots:
// the NTT-form counterpart of Automorphism on one residue row. The GPU
// backend hands it work-group ranges (dst[lo:hi], src, perm[lo:hi]).
func AutomorphismNTT(dst, src []uint64, perm []uint32) {
	dst = dst[:len(perm)]
	for i, s := range perm {
		dst[i] = src[s]
	}
}
