// Package rns implements the Residue Number System machinery of
// Section II-B: a basis of pairwise co-prime NTT-friendly moduli, CRT
// composition/decomposition, and the per-level precomputations that
// the full-RNS CKKS evaluator needs (rescale inverses, punctured
// products, special-prime factors for key switching).
package rns

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"

	"xehe/internal/xmath"
)

// Basis is a chain of RNS moduli q_0, ..., q_{L-1} plus one special
// prime p used for key switching (the auxiliary P of the Relin
// primitive in Section II-A). The ciphertext modulus at level l is
// q_0 * ... * q_l.
type Basis struct {
	// Moduli are the ciphertext moduli q_i.
	Moduli []xmath.Modulus
	// Special is the key-switching prime p.
	Special xmath.Modulus

	// levels[l] holds precomputations for the sub-basis q_0..q_l.
	levels []levelPrecomp
}

type levelPrecomp struct {
	q *big.Int // product of q_0..q_l
	// Q_l and its punctured products as little-endian 64-bit limbs of
	// width w, the word count of Q_l, for ComposeCenteredFloat64:
	// qLimbs is Q_l, halfLimbs floor(Q_l/2), and qHatLimbs[i*w:(i+1)*w]
	// is Q_l/q_i.
	qLimbs, halfLimbs, qHatLimbs []uint64
	// qInv[i] = 1/q_i in float64, for the quotient estimate.
	qInv []float64
	// qHatInvModQi[i] = (Q_l/q_i)^{-1} mod q_i (punctured product
	// inverses), with its Harvey quotient: composition multiplies every
	// residue by it.
	qHatInvModQi []xmath.MulModOperand
	// invLastModQi[i] = q_l^{-1} mod q_i for i < l (rescale factors),
	// with its Harvey quotient: the kernels multiply whole rows by it.
	invLastModQi []xmath.MulModOperand
	// specialInvModQi[i] = p^{-1} mod q_i (key-switch mod-down), likewise.
	specialInvModQi []xmath.MulModOperand
	// specialModQi[i] = p mod q_i.
	specialModQi []uint64
}

// NewBasis builds a basis from L ciphertext primes and one special
// prime. All primes must be distinct, NTT-friendly for the caller's N,
// and < 2^60 (enforced by xmath.NewModulus). The chain holds at most
// xmath.MaxLazyTerms primes: a key switch has one digit per chain prime
// and sums their products in 128 bits before reducing.
func NewBasis(primes []uint64, special uint64) *Basis {
	if len(primes) == 0 {
		panic("rns: empty modulus chain")
	}
	if len(primes) > xmath.MaxLazyTerms {
		panic(fmt.Sprintf("rns: chain of %d moduli exceeds the %d a key switch can sum unreduced in 128 bits (xmath.MaxLazyTerms)", len(primes), xmath.MaxLazyTerms))
	}
	seen := map[uint64]bool{special: true}
	b := &Basis{Special: xmath.NewModulus(special)}
	for _, p := range primes {
		if seen[p] {
			panic("rns: duplicate modulus in chain")
		}
		seen[p] = true
		b.Moduli = append(b.Moduli, xmath.NewModulus(p))
	}
	b.levels = make([]levelPrecomp, len(primes))
	for l := range primes {
		b.levels[l] = b.precomputeLevel(l)
	}
	return b
}

func (b *Basis) precomputeLevel(l int) levelPrecomp {
	lp := levelPrecomp{
		q:               big.NewInt(1),
		qInv:            make([]float64, l+1),
		qHatInvModQi:    make([]xmath.MulModOperand, l+1),
		invLastModQi:    make([]xmath.MulModOperand, l),
		specialInvModQi: make([]xmath.MulModOperand, l+1),
		specialModQi:    make([]uint64, l+1),
	}
	for i := 0; i <= l; i++ {
		lp.q.Mul(lp.q, new(big.Int).SetUint64(b.Moduli[i].Value))
	}
	w := (lp.q.BitLen() + 63) / 64
	lp.qLimbs = limbs(lp.q, w)
	lp.halfLimbs = limbs(new(big.Int).Rsh(lp.q, 1), w)
	for i := 0; i <= l; i++ {
		mi := b.Moduli[i]
		lp.qHatLimbs = append(lp.qHatLimbs, limbs(new(big.Int).Div(lp.q, new(big.Int).SetUint64(mi.Value)), w)...)
		lp.qInv[i] = 1 / float64(mi.Value)
		// qHat_i = Q_l / q_i mod q_i.
		qHat := uint64(1)
		for j := 0; j <= l; j++ {
			if j != i {
				qHat = mi.MulMod(qHat, mi.BarrettReduce(b.Moduli[j].Value))
			}
		}
		lp.qHatInvModQi[i] = xmath.NewMulModOperand(mi.InvMod(qHat), mi)
		lp.specialModQi[i] = mi.BarrettReduce(b.Special.Value)
		lp.specialInvModQi[i] = xmath.NewMulModOperand(mi.InvMod(lp.specialModQi[i]), mi)
		if i < l {
			lp.invLastModQi[i] = xmath.NewMulModOperand(mi.InvMod(mi.BarrettReduce(b.Moduli[l].Value)), mi)
		}
	}
	return lp
}

// limbs returns x >= 0 as w little-endian 64-bit words.
func limbs(x *big.Int, w int) []uint64 {
	be := x.FillBytes(make([]byte, 8*w))
	out := make([]uint64, w)
	for i := range out {
		out[i] = binary.BigEndian.Uint64(be[len(be)-8*(i+1):])
	}
	return out
}

// MaxLevel returns the highest level index (len(Moduli)-1).
func (b *Basis) MaxLevel() int { return len(b.Moduli) - 1 }

// Q returns the ciphertext modulus product at the given level.
func (b *Basis) Q(level int) *big.Int { return new(big.Int).Set(b.levels[level].q) }

// InvLastModQi returns q_level^{-1} mod q_i (i < level), the rescale
// scaling factor.
func (b *Basis) InvLastModQi(level, i int) uint64 { return b.levels[level].invLastModQi[i].Operand }

// InvLastOperand returns InvLastModQi as a Harvey operand, for the
// exact constant multiply (MulModOperand.MulMod) of the rescale kernels.
func (b *Basis) InvLastOperand(level, i int) xmath.MulModOperand {
	return b.levels[level].invLastModQi[i]
}

// SpecialModQi returns p mod q_i.
func (b *Basis) SpecialModQi(level, i int) uint64 { return b.levels[level].specialModQi[i] }

// SpecialInvModQi returns p^{-1} mod q_i, used to divide by P after a
// key switch.
func (b *Basis) SpecialInvModQi(level, i int) uint64 {
	return b.levels[level].specialInvModQi[i].Operand
}

// SpecialInvOperand returns SpecialInvModQi as a Harvey operand, for
// the exact constant multiply of the key-switch mod-down kernels.
func (b *Basis) SpecialInvOperand(level, i int) xmath.MulModOperand {
	return b.levels[level].specialInvModQi[i]
}

// ComposeCenteredFloat64 sets dst[j] to the float64 nearest (ties to
// even) the centered CRT composition of rows[0][j], ..., rows[level][j]
// in [-Q/2, Q/2): bit for bit big.Int.Float64() of that integer (the
// tests compose it on math/big), without math/big. Each coefficient is
// composed in fixed-width limbs on the punctured products precomputed
// per level, in one scratch allocation per call:
//
//  1. c_i = [r_i * (Q/q_i)^{-1}]_{q_i};
//  2. x = sum_i c_i * (Q/q_i) < (level+1) * Q, in w+1 words;
//  3. x -= t*Q with t = floor(sum_i c_i/q_i) estimated in float64 —
//     x/Q is exactly that sum, so the estimate is off by at most one
//     and one correction lands x in [0, Q);
//  4. x > floor(Q/2) becomes -(Q - x);
//  5. the magnitude's top 64 bits, with a sticky bit for any nonzero bit
//     below them, round once in the uint64 -> float64 conversion and are
//     scaled by math.Ldexp.
func (b *Basis) ComposeCenteredFloat64(dst []float64, rows [][]uint64, level int) {
	lp := &b.levels[level]
	q := lp.qLimbs
	w := len(q)
	x := make([]uint64, w+1)
	for j := range dst {
		clear(x)
		var est float64
		for i := 0; i <= level; i++ {
			ci := lp.qHatInvModQi[i].MulMod(rows[i][j], b.Moduli[i].Value)
			est += float64(ci) * lp.qInv[i]
			mulAddLimbs(x, lp.qHatLimbs[i*w:(i+1)*w], ci)
		}

		// x - t*Q lies in (-Q, 2Q): the top word is all ones when it is
		// negative and nonzero only when x >= Q.
		mulSubLimbs(x, q, uint64(est))
		switch {
		case x[w] == math.MaxUint64:
			mulAddLimbs(x, q, 1)
		case x[w] != 0 || !lessLimbs(x[:w], q):
			mulSubLimbs(x, q, 1)
		}

		neg := lessLimbs(lp.halfLimbs, x[:w])
		if neg {
			// Q - x, in place.
			var borrow uint64
			for k := range q {
				x[k], borrow = bits.Sub64(q[k], x[k], borrow)
			}
		}
		f := limbsFloat64(x[:w])
		if neg {
			f = -f
		}
		dst[j] = f
	}
}

// mulAddLimbs sets x (w+1 words) to x + c*h (h has w words), modulo
// 2^(64(w+1)).
func mulAddLimbs(x, h []uint64, c uint64) {
	var carry uint64
	for k, v := range h {
		hi, lo := bits.Mul64(c, v)
		var cc uint64
		lo, cc = bits.Add64(lo, carry, 0)
		hi += cc
		x[k], cc = bits.Add64(x[k], lo, 0)
		carry = hi + cc
	}
	x[len(h)] += carry
}

// mulSubLimbs sets x (w+1 words) to x - c*h (h has w words), modulo
// 2^(64(w+1)).
func mulSubLimbs(x, h []uint64, c uint64) {
	var carry, borrow uint64
	for k, v := range h {
		hi, lo := bits.Mul64(c, v)
		var cc uint64
		lo, cc = bits.Add64(lo, carry, 0)
		carry = hi + cc
		x[k], borrow = bits.Sub64(x[k], lo, borrow)
	}
	x[len(h)] -= carry + borrow
}

// lessLimbs reports a < b for little-endian limbs of equal length.
func lessLimbs(a, b []uint64) bool {
	for k := len(a) - 1; k >= 0; k-- {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// limbsFloat64 returns the float64 nearest (ties to even) the
// little-endian integer x, as big.Int.Float64 does.
func limbsFloat64(x []uint64) float64 {
	j := len(x) - 1
	for j > 0 && x[j] == 0 {
		j--
	}
	if j == 0 {
		return float64(x[0])
	}
	// top is the 64 bits from the leading one down; sticky is the rest.
	lz := uint(bits.LeadingZeros64(x[j]))
	top, sticky := x[j], x[j-1]
	if lz > 0 {
		top = x[j]<<lz | x[j-1]>>(64-lz)
		sticky = x[j-1] << lz
	}
	for _, v := range x[:j-1] {
		sticky |= v
	}
	if sticky != 0 {
		top |= 1
	}
	return math.Ldexp(float64(top), 64*j-int(lz))
}

// NewCKKSBasis generates a standard CKKS modulus chain for degree n:
// a first (largest) prime of firstBits, `level` middle primes of
// midBits (≈ the scale), and a special prime of specialBits. This
// mirrors SEAL's CoeffModulus::Create conventions.
func NewCKKSBasis(n, levels, firstBits, midBits, specialBits int) *Basis {
	if levels < 1 {
		panic("rns: need at least one level")
	}
	var primes []uint64
	need := map[int]int{}
	need[firstBits]++
	need[midBits] += levels - 1
	need[specialBits]++
	gen := map[int][]uint64{}
	for bitsz, cnt := range need {
		if cnt > 0 {
			gen[bitsz] = xmath.GeneratePrimes(bitsz, cnt, n)
		}
	}
	take := func(bitsz int) uint64 {
		p := gen[bitsz][0]
		gen[bitsz] = gen[bitsz][1:]
		return p
	}
	primes = append(primes, take(firstBits))
	for i := 0; i < levels-1; i++ {
		primes = append(primes, take(midBits))
	}
	special := take(specialBits)
	return NewBasis(primes, special)
}
