// Package rns implements the Residue Number System machinery of
// Section II-B: a basis of pairwise co-prime NTT-friendly moduli, CRT
// composition/decomposition, and the per-level precomputations that
// the full-RNS CKKS evaluator needs (rescale inverses, punctured
// products, special-prime factors for key switching).
package rns

import (
	"fmt"
	"math/big"

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
	// qHatInvModQi[i] = (Q_l/q_i)^{-1} mod q_i (punctured product inverses).
	qHatInvModQi []uint64
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
		qHatInvModQi:    make([]uint64, l+1),
		invLastModQi:    make([]xmath.MulModOperand, l),
		specialInvModQi: make([]xmath.MulModOperand, l+1),
		specialModQi:    make([]uint64, l+1),
	}
	for i := 0; i <= l; i++ {
		lp.q.Mul(lp.q, new(big.Int).SetUint64(b.Moduli[i].Value))
	}
	for i := 0; i <= l; i++ {
		mi := b.Moduli[i]
		// qHat_i = Q_l / q_i mod q_i.
		qHat := uint64(1)
		for j := 0; j <= l; j++ {
			if j != i {
				qHat = mi.MulMod(qHat, mi.BarrettReduce(b.Moduli[j].Value))
			}
		}
		lp.qHatInvModQi[i] = mi.InvMod(qHat)
		lp.specialModQi[i] = mi.BarrettReduce(b.Special.Value)
		lp.specialInvModQi[i] = xmath.NewMulModOperand(mi.InvMod(lp.specialModQi[i]), mi)
		if i < l {
			lp.invLastModQi[i] = xmath.NewMulModOperand(mi.InvMod(mi.BarrettReduce(b.Moduli[l].Value)), mi)
		}
	}
	return lp
}

// MaxLevel returns the highest level index (len(Moduli)-1).
func (b *Basis) MaxLevel() int { return len(b.Moduli) - 1 }

// Q returns the ciphertext modulus product at the given level.
func (b *Basis) Q(level int) *big.Int { return new(big.Int).Set(b.levels[level].q) }

// QHatInvModQi returns (Q_l/q_i)^{-1} mod q_i at the given level.
func (b *Basis) QHatInvModQi(level, i int) uint64 { return b.levels[level].qHatInvModQi[i] }

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

// Compose reconstructs the integer x in [0, Q_l) from its residues
// res[i] = x mod q_i, i = 0..level, via the CRT:
//
//	x = sum_i [res_i * (Q/q_i)^{-1}]_{q_i} * (Q/q_i)  mod Q
func (b *Basis) Compose(res []uint64, level int) *big.Int {
	lp := &b.levels[level]
	x := new(big.Int)
	tmp := new(big.Int)
	for i := 0; i <= level; i++ {
		mi := b.Moduli[i]
		ci := mi.MulMod(mi.BarrettReduce(res[i]), lp.qHatInvModQi[i])
		// qHatBig = Q / q_i.
		tmp.SetUint64(b.Moduli[i].Value)
		qHatBig := new(big.Int).Div(lp.q, tmp)
		tmp.SetUint64(ci)
		x.Add(x, tmp.Mul(tmp, qHatBig))
	}
	return x.Mod(x, lp.q)
}

// ComposeCentered reconstructs x as a signed integer in
// [-Q/2, Q/2), the centered representative used when decoding.
func (b *Basis) ComposeCentered(res []uint64, level int) *big.Int {
	x := b.Compose(res, level)
	half := new(big.Int).Rsh(b.levels[level].q, 1)
	if x.Cmp(half) >= 0 {
		x.Sub(x, b.levels[level].q)
	}
	return x
}

// Decompose returns the residues of the (possibly negative) integer x
// under q_0..q_level.
func (b *Basis) Decompose(x *big.Int, level int) []uint64 {
	res := make([]uint64, level+1)
	tmp := new(big.Int)
	mod := new(big.Int)
	for i := 0; i <= level; i++ {
		mod.SetUint64(b.Moduli[i].Value)
		tmp.Mod(x, mod) // Go's Mod is Euclidean: result in [0, q_i)
		res[i] = tmp.Uint64()
	}
	return res
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
