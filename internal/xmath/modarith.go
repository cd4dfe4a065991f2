// Package xmath implements the 64-bit modular integer arithmetic that
// underpins the whole HE stack: modular addition, subtraction and
// multiplication with Barrett reduction, David Harvey's preconditioned
// ("lazy") multiplication used by the NTT butterflies, the fused
// multiply-add-mod (mad_mod) operation from the paper's
// instruction-level optimizations, and NTT-friendly prime generation.
//
// All ciphertext moduli used by the library are < 2^60, matching SEAL
// and the paper (Section III.A.1). A product of two reduced operands is
// then below 2^120, so a 128-bit accumulator holds the sum of up to
// MaxLazyTerms = 255 such products (255 * 2^120 < 2^128) before it must
// be reduced: the modular reduction is deferred across a whole c-term
// inner product, not just one multiply-accumulate, and
// BarrettReduce128 — exact for any 128-bit input — is paid once at the
// end. The key switch (internal/core) sums its c digit products this
// way, which is why rns.NewBasis refuses a chain longer than
// MaxLazyTerms.
//
// The row primitives (ReduceRow, SubMulRow, InnerProductPair,
// TensorRow, MulAddRow, AddRow) have vector bodies in vector_amd64.s
// in two families: 64-bit ones on AVX-512F + DQ for any modulus, and
// IFMA ones on AVX-512 IFMA's 52-bit multiply-adds for the moduli
// newBarrett52 admits, every one from 2^12 to 2^50 but the powers of
// two. The Go loops beside them are the fallback and the oracle, and
// all three give the canonical residue, so the same words bit for bit.
package xmath

import "math/bits"

// MaxModulusBits is the largest bit width permitted for a ciphertext
// modulus. The paper (following SEAL) keeps all moduli below 60 bits so
// Harvey's lazy reduction and mad_mod fusion are overflow-safe.
const MaxModulusBits = 60

// MaxLazyTerms is how many products of reduced operands may be summed
// in 128 bits before a reduction is due: each is below 2^120, and
// 255 * 2^120 < 2^128.
const MaxLazyTerms = 255

// AddMod returns (a + b) mod p. It requires a, b < p < 2^63.
//
// This is the operation the paper optimizes from 4 compiler-generated
// instructions down to 3 with inline assembly (Fig. 3); the arithmetic
// is identical either way.
func AddMod(a, b, p uint64) uint64 {
	s := a + b
	if s >= p {
		s -= p
	}
	return s
}

// SubMod returns (a - b) mod p. It requires a, b < p.
func SubMod(a, b, p uint64) uint64 {
	d := a - b
	if a < b {
		d += p
	}
	return d
}

// NegMod returns (-a) mod p for a < p.
func NegMod(a, p uint64) uint64 {
	if a == 0 {
		return 0
	}
	return p - a
}

// Modulus bundles a prime modulus with the precomputed constants used
// by Barrett reduction. ConstRatio is floor(2^128 / p) stored as a
// 2-word little-endian value, exactly like SEAL's Modulus class.
type Modulus struct {
	Value      uint64
	ConstRatio [2]uint64 // floor(2^128/p): [lo, hi]
	ifma       barrett52 // the IFMA rows' constants; zero if p does not take them
}

// NewModulus precomputes Barrett constants for p. It panics if p < 2 or
// p exceeds MaxModulusBits bits, which would break the lazy-reduction
// invariants relied on throughout the library.
func NewModulus(p uint64) Modulus {
	if p < 2 {
		panic("xmath: modulus must be >= 2")
	}
	if bits.Len64(p) > MaxModulusBits {
		panic("xmath: modulus exceeds 60 bits")
	}
	// Compute floor(2^128 / p) by long division of 2^128 by p.
	// 2^128 = (2^64)^2; divide (1<<64, 0, 0) in base-2^64 digits.
	hi, rem := bits.Div64(1, 0, p) // floor(2^64 / p), remainder
	lo, _ := bits.Div64(rem, 0, p)
	m := Modulus{Value: p, ConstRatio: [2]uint64{lo, hi}}
	m.ifma = newBarrett52(m)
	return m
}

// barrett52 holds what the IFMA row bodies need of a modulus p besides
// p: s = bitlen(p) − 1, the ratio floor(2^(s+52)/p), and 2^52 mod p as
// a 52-bit operand (NewMulModOperand52), through which the inner
// product folds its high sum back. The zero value keeps p on the
// 64-bit bodies.
type barrett52 struct {
	shift, ratio uint64
	fold         MulModOperand
}

// newBarrett52 builds m's barrett52 if m takes the IFMA rows, which is
// when 2^12 <= p < 2^50 and p is not a power of two; for any other
// modulus it returns the zero value. This is the one place that
// decides which moduli take the IFMA rows.
//
// The reduction it serves takes any V whose c1 = V >> s is below 2^52:
// q = hi52(c1·ratio) is at most V/p and more than V/p − 3, so
// r = V − q·p lies in [0, 3p) and is exactly lo52(V − q·p), the low
// half IFMA gives, once 3p < 2^52. Two conditional subtractions,
// min(r, r−p) twice, leave the canonical residue. The bounds make the
// class:
//   - p < 2^50: 3p < 2^52, and the products the rows reduce fit, since
//     a·b + c < 2p^2 < 2^(s+52) for reduced a, b and c, and the sum of
//     two products too (TensorRow);
//   - p >= 2^12: any 64-bit word is below 2^(s+52) (ReduceRow);
//   - p not a power of two: then ratio < 2^52; at p = 2^s it is 2^52,
//     which does not fit IFMA's 52-bit operands.
//
// The inner product's sums are wider: its up to 16 products give a low
// sum below 2^56 and a high sum H below 2^52, and H·2^52 folds back as
// H·(2^52 mod p) lazily reduced into [0, 2p), which leaves a V below
// 2^57 < 2^(s+52).
func newBarrett52(m Modulus) barrett52 {
	p := m.Value
	if !takesIFMA(p) {
		return barrett52{}
	}
	s := uint64(bits.Len64(p) - 1)
	// 2^(s+52) in two words is (2^(s−12), 0).
	ratio, _ := bits.Div64(1<<(s-12), 0, p)
	return barrett52{shift: s, ratio: ratio, fold: NewMulModOperand52(1<<52, m)}
}

// takesIFMA reports whether the IFMA rows take modulus p: newBarrett52's
// rule, which SubMulRow, given a bare p, reads directly.
func takesIFMA(p uint64) bool {
	return p >= 1<<12 && p < 1<<50 && p&(p-1) != 0
}

// kernels names the family that ran a row's vector prefix.
type kernels uint8

const (
	goLoops       kernels = iota // none: the Go loop ran the whole row
	avx512Kernels                // the 64-bit bodies: AVX-512F + DQ, any modulus
	ifmaKernels                  // the IFMA bodies: the moduli takesIFMA admits
)

// ifmaRows reports whether the IFMA bodies may run: HasIFMA, read once.
// Tests switch it off to run the 64-bit bodies under every modulus.
var ifmaRows = HasIFMA()

// BarrettReduce returns a mod p using the 1-word Barrett reduction.
func (m Modulus) BarrettReduce(a uint64) uint64 {
	hi, _ := bits.Mul64(a, m.ConstRatio[1])
	r := a - hi*m.Value
	if r >= m.Value {
		r -= m.Value
	}
	return r
}

// ReduceRow sets dst[x] = BarrettReduce(src[x]) for every x of src:
// any 64-bit input, reduced into [0, p). dst must be at least as long
// as src. With AVX-512 the multiple-of-8 prefix runs eight coefficients
// per instruction and the Go loop takes the tail.
func (m Modulus) ReduceRow(dst, src []uint64) {
	dst = dst[:len(src)]
	x, _ := m.reduceRowVector(dst, src)
	for ; x < len(src); x++ {
		dst[x] = m.BarrettReduce(src[x])
	}
}

// barrettQuotient128 returns the third 64-bit word of the 256-bit
// product (hi, lo) * (r1, r0), with (r1, r0) = floor(2^128/p): the
// quotient estimate of SEAL's barrett_reduce_128 (see SEAL
// uintarithsmallmod.h for the derivation), at most one below the true
// quotient. It is small enough to inline, so loops that hold p and the
// ratio in locals share this one definition with BarrettReduce128.
func barrettQuotient128(hi, lo, r0, r1 uint64) uint64 {
	carry, _ := bits.Mul64(lo, r0)
	h2, l2 := bits.Mul64(lo, r1)
	tmp2, carry2 := bits.Add64(l2, carry, 0)
	h3, l3 := bits.Mul64(hi, r0)
	_, carry3 := bits.Add64(l3, tmp2, 0)
	return h2 + carry2 + h3 + carry3 + hi*r1
}

// BarrettReduce128 reduces a 128-bit value (hi, lo) modulo p.
// This is SEAL's barrett_reduce_128: two-word Barrett with the
// precomputed floor(2^128/p) ratio.
func (m Modulus) BarrettReduce128(hi, lo uint64) uint64 {
	r := lo - barrettQuotient128(hi, lo, m.ConstRatio[0], m.ConstRatio[1])*m.Value
	if r >= m.Value {
		r -= m.Value
	}
	return r
}

// MulMod returns (a * b) mod p via 128-bit multiply + Barrett reduction.
func (m Modulus) MulMod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return m.BarrettReduce128(hi, lo)
}

// MAdMod returns (a*b + c) mod p with a single modular reduction at the
// end — the paper's fused mad_mod (Section III.A.1). The 128-bit
// accumulator cannot overflow because a, b, c < 2^60: a*b < 2^120 and
// adding c < 2^60 stays below 2^121 < 2^128.
func (m Modulus) MAdMod(a, b, c uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	var carry uint64
	lo, carry = bits.Add64(lo, c, 0)
	hi += carry
	return m.BarrettReduce128(hi, lo)
}

// MulAdd128 returns (hi, lo) + a*b without reducing: one term of a
// lazy sum. The caller keeps the term count within MaxLazyTerms.
func MulAdd128(hi, lo, a, b uint64) (uint64, uint64) {
	ph, pl := bits.Mul64(a, b)
	lo, carry := bits.Add64(lo, pl, 0)
	return hi + ph + carry, lo
}

// The row primitives below are the elementwise kernels' bodies. Each
// writes every x of its first argument, reads the other rows at the
// same x (they must be at least as long and must not overlap the
// outputs, but for an addend that is the output itself), and writes
// the canonical residue of reduced operands. With AVX-512
// (vector_amd64.s) the multiple-of-8 prefix runs eight coefficients per
// instruction, on the IFMA bodies under the moduli newBarrett52 admits
// where the CPU has IFMA. The Go loop — the …Go function beside each,
// also the oracle the vector bodies are tested against — takes the
// tail, so every path gives the same words bit for bit.

// AddRow sets dst[x] = AddMod(a[x], b[x], p).
func (m Modulus) AddRow(dst, a, b []uint64) {
	a, b = a[:len(dst)], b[:len(dst)]
	x, _ := m.addRowVector(dst, a, b)
	addRowGo(dst[x:], a[x:], b[x:], m.Value)
}

func addRowGo(dst, a, b []uint64, p uint64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for x := range dst {
		dst[x] = AddMod(a[x], b[x], p)
	}
}

// MulAddRow sets dst[x] = a[x]·b[x] mod p, or MAdMod(a[x], b[x],
// add[x]) — the product and the addend under one reduction — when add
// is not nil. add may be dst itself: dst += a ⊙ b.
func (m Modulus) MulAddRow(dst, a, b, add []uint64) {
	a, b = a[:len(dst)], b[:len(dst)]
	if add != nil {
		add = add[:len(dst)]
	}
	x, _ := m.mulAddRowVector(dst, a, b, add)
	if add != nil {
		add = add[x:]
	}
	m.mulAddRowGo(dst[x:], a[x:], b[x:], add)
}

func (m Modulus) mulAddRowGo(dst, a, b, add []uint64) {
	a, b = a[:len(dst)], b[:len(dst)]
	if add == nil {
		for x := range dst {
			dst[x] = m.MulMod(a[x], b[x])
		}
		return
	}
	add = add[:len(dst)]
	for x := range dst {
		dst[x] = m.MAdMod(a[x], b[x], add[x])
	}
}

// TensorRow sets the degree-2 tensor product of (a0, a1) and (b0, b1):
// d0 = a0 ⊙ b0, d1 = a0 ⊙ b1 + a1 ⊙ b0 under one reduction, and
// d2 = a1 ⊙ b1, reading each input row once. With b = a it is the
// square: a0a1 doubled, reduced once.
func (m Modulus) TensorRow(d0, d1, d2, a0, a1, b0, b1 []uint64) {
	n := len(d0)
	d1, d2, a0, a1, b0, b1 = d1[:n], d2[:n], a0[:n], a1[:n], b0[:n], b1[:n]
	x, _ := m.tensorRowVector(d0, d1, d2, a0, a1, b0, b1)
	m.tensorRowGo(d0[x:], d1[x:], d2[x:], a0[x:], a1[x:], b0[x:], b1[x:])
}

func (m Modulus) tensorRowGo(d0, d1, d2, a0, a1, b0, b1 []uint64) {
	n := len(d0)
	d1, d2, a0, a1, b0, b1 = d1[:n], d2[:n], a0[:n], a1[:n], b0[:n], b1[:n]
	for x := range d0 {
		d0[x] = m.MulMod(a0[x], b0[x])
		h, l := bits.Mul64(a0[x], b1[x])
		d1[x] = m.BarrettReduce128(MulAdd128(h, l, a1[x], b0[x]))
		d2[x] = m.MulMod(a1[x], b1[x])
	}
}

// lazyBlock is how many coefficients InnerProductPair keeps unreduced
// at a time: four accumulator words each, 8 KB, so the sums stay in L1
// while the terms stream past.
const lazyBlock = 256

// InnerProductPair sets, for x in [lo, hi),
//
//	out0[x] = sum_i d[i][x]*b[i][x] mod p
//	out1[x] = sum_i d[i][x]*a[i][x] mod p
//
// over the len(d) <= MaxLazyTerms terms, reading each d[i][x] once for
// both sums. The products are accumulated unreduced in 128 bits (SEAL's
// switch_key_inplace does the same) and each sum is reduced once, so a
// term costs two multiplies instead of two full MAdMods. The result is
// the canonical residue, i.e. what the MAdMod chain from zero returns.
// All operands must be reduced.
//
// With AVX-512 (vector_amd64.s) and at most 16 terms, the multiple-of-16
// prefix of [lo, hi) runs eight coefficients per instruction, on the
// IFMA body under the moduli newBarrett52 admits where the CPU has
// IFMA; the rest, and every longer chain, runs the Go loop,
// innerProductPairGo. All give the canonical residue, so the results
// are the same bit for bit.
func (m Modulus) InnerProductPair(out0, out1 []uint64, d, b, a [][]uint64, lo, hi int) {
	if len(d) > MaxLazyTerms {
		panic("xmath: lazy inner product over more than MaxLazyTerms terms")
	}
	lo, _ = m.innerProductPairVector(out0, out1, d, b, a, lo, hi)
	m.innerProductPairGo(out0, out1, d, b, a, lo, hi)
}

// innerProductPairGo is InnerProductPair in Go: the fallback, and the
// oracle the vector body is tested against.
func (m Modulus) innerProductPairGo(out0, out1 []uint64, d, b, a [][]uint64, lo, hi int) {
	p, r0, r1 := m.Value, m.ConstRatio[0], m.ConstRatio[1]
	for x0 := lo; x0 < hi; x0 += lazyBlock {
		x1 := min(x0+lazyBlock, hi)
		n := x1 - x0
		var acc [4][lazyBlock]uint64
		h0, l0, h1, l1 := acc[0][:n], acc[1][:n], acc[2][:n], acc[3][:n]
		for i := range d {
			di, bi, ai := d[i][x0:x1], b[i][x0:x1], a[i][x0:x1]
			for x, dv := range di {
				h0[x], l0[x] = MulAdd128(h0[x], l0[x], dv, bi[x])
				h1[x], l1[x] = MulAdd128(h1[x], l1[x], dv, ai[x])
			}
		}
		for _, s := range [2]struct{ out, hi, lo []uint64 }{{out0[x0:x1], h0, l0}, {out1[x0:x1], h1, l1}} {
			for x, l := range s.lo {
				r := l - barrettQuotient128(s.hi[x], l, r0, r1)*p
				if r >= p {
					r -= p
				}
				s.out[x] = r
			}
		}
	}
}

// PowMod returns a^e mod p by square-and-multiply.
func (m Modulus) PowMod(a, e uint64) uint64 {
	a = m.BarrettReduce(a)
	r := uint64(1)
	for e > 0 {
		if e&1 == 1 {
			r = m.MulMod(r, a)
		}
		a = m.MulMod(a, a)
		e >>= 1
	}
	return r
}

// InvMod returns a^-1 mod p for prime p, or panics if a == 0 mod p.
func (m Modulus) InvMod(a uint64) uint64 {
	a = m.BarrettReduce(a)
	if a == 0 {
		panic("xmath: zero has no modular inverse")
	}
	// Fermat: a^(p-2) mod p.
	return m.PowMod(a, m.Value-2)
}

// MulModOperand holds Harvey's preconditioned multiplication operand: a
// fixed multiplier W together with W' = floor(W * 2^64 / p). It makes
// repeated multiplications by W cost one high-half multiply plus one
// low multiply — the core trick inside the NTT butterfly (Algorithm 1).
type MulModOperand struct {
	Operand  uint64 // W, in [0, p)
	Quotient uint64 // floor(W * 2^64 / p)
}

// NewMulModOperand precomputes the Harvey quotient for operand w mod p.
func NewMulModOperand(w uint64, m Modulus) MulModOperand {
	w = m.BarrettReduce(w)
	q, _ := bits.Div64(w, 0, m.Value) // floor(w * 2^64 / p)
	return MulModOperand{Operand: w, Quotient: q}
}

// NewMulModOperand52 is NewMulModOperand with the quotient's low 12
// bits cleared: W' = floor(W·2^52/p)·2^12. For y < 2^52, MulModLazy
// with it returns y·W − floor(y·floor(W·2^52/p)/2^52)·p, in [0, 2p) —
// the integer AVX-512 IFMA gives from three 52-bit multiply-adds
// (VPMADD52HUQ on W'>>12 for the quotient, VPMADD52LUQ for y·W and the
// quotient times −p) and a 52-bit mask. So Go code and IFMA kernels
// reading one such operand agree bit for bit; for y ≥ 2^52 neither
// result holds.
func NewMulModOperand52(w uint64, m Modulus) MulModOperand {
	w = m.BarrettReduce(w)
	q, _ := bits.Div64(w>>12, w<<52, m.Value) // floor(w * 2^52 / p)
	return MulModOperand{Operand: w, Quotient: q << 12}
}

// MulModLazy returns a value congruent to y*W mod p lying in [0, 2p):
// Harvey's lazy preconditioned multiplication.
func (op MulModOperand) MulModLazy(y uint64, p uint64) uint64 {
	q, _ := bits.Mul64(op.Quotient, y)
	return y*op.Operand - q*p
}

// MulMod returns y*W mod p fully reduced to [0, p).
func (op MulModOperand) MulMod(y uint64, p uint64) uint64 {
	r := op.MulModLazy(y, p)
	if r >= p {
		r -= p
	}
	return r
}

// SubMulRow sets dst[x] = W·(a[x] − dst[x]) mod p for every x of dst,
// plus add[x] mod p when add is not nil: the key switch's mod-down
// scale, (acc − res)·p⁻¹ (+ addend). Operands must be reduced, and a and
// add at least as long as dst. With AVX-512 the multiple-of-8 prefix
// runs eight coefficients per instruction and the Go loop takes the
// tail. The IFMA body (p as takesIFMA admits) reads the 52-bit quotient
// floor(W·2^52/p) as Quotient >> 12, which it is for the operands of
// both NewMulModOperand and NewMulModOperand52.
func (op MulModOperand) SubMulRow(dst, a, add []uint64, p uint64) {
	a = a[:len(dst)]
	if add != nil {
		add = add[:len(dst)]
	}
	x, _ := op.subMulRowVector(dst, a, add, p)
	for ; x < len(dst); x++ {
		v := op.MulMod(SubMod(a[x], dst[x], p), p)
		if add != nil {
			v = AddMod(v, add[x], p)
		}
		dst[x] = v
	}
}

// HarveyButterfly performs the Cooley–Tukey NTT butterfly from the
// paper's Algorithm 1 on lazy inputs:
//
//	X' = X + W*Y mod p,  Y' = X - W*Y mod p
//
// Inputs satisfy 0 <= X, Y < 4p and outputs satisfy 0 <= X', Y' < 4p,
// so reductions can be deferred across rounds (the "last round
// processing" finally brings everything into [0, p)).
func HarveyButterfly(x, y uint64, w MulModOperand, p, twoP uint64) (uint64, uint64) {
	if x >= twoP {
		x -= twoP
	}
	t := w.MulModLazy(y, p) // in [0, 2p)
	return x + t, x + twoP - t
}

// GSButterfly performs the Gentleman–Sande (inverse NTT) butterfly on
// lazy inputs:
//
//	X' = X + Y mod p,  Y' = W * (X - Y) mod p
//
// with inputs in [0, 2p) and outputs in [0, 2p).
func GSButterfly(x, y uint64, w MulModOperand, p, twoP uint64) (uint64, uint64) {
	s := x + y
	if s >= twoP {
		s -= twoP
	}
	d := x + twoP - y
	return s, w.MulModLazy(d, p)
}

// ReduceToRange brings a lazy value in [0, 4p) into [0, p).
func ReduceToRange(x, p uint64) uint64 {
	twoP := 2 * p
	if x >= twoP {
		x -= twoP
	}
	if x >= p {
		x -= p
	}
	return x
}
