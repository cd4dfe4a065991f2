// Package ckks implements the Cheon-Kim-Kim-Song approximate
// homomorphic encryption scheme (Section II-A) in its full-RNS form:
// canonical-embedding encoder, key generation (secret/public/
// relinearization/Galois keys), encryption, decryption, and the host
// reference evaluator with Add, Mul, Relinearize, Rescale, ModSwitch
// and Rotate. The GPU backend in internal/core accelerates the same
// pipeline on the simulated Intel GPU.
package ckks

import (
	"sync"

	"xehe/internal/ntt"
	"xehe/internal/poly"
	"xehe/internal/rns"
	"xehe/internal/xmath"
)

// Parameters fixes a CKKS instantiation: ring degree N, RNS modulus
// chain, and default encoding scale Δ.
type Parameters struct {
	N     int
	Scale float64
	Basis *rns.Basis

	// ChainTables[i] are the NTT tables of q_i; SpecialTable is for the
	// key-switching prime p.
	ChainTables  []*ntt.Tables
	SpecialTable *ntt.Tables

	// galoisPerms caches the NTT-form automorphism table of each Galois
	// element used so far (uint64 -> []uint32); see GaloisPermutation.
	galoisPerms sync.Map
}

// NewParameters builds parameters with `levels` chain primes: a
// firstBits-bit first prime, (levels-1) midBits-bit scaling primes, and
// a specialBits-bit key-switching prime. Scale is typically 2^midBits.
func NewParameters(n, levels, firstBits, midBits, specialBits int, scale float64) *Parameters {
	basis := rns.NewCKKSBasis(n, levels, firstBits, midBits, specialBits)
	p := &Parameters{N: n, Scale: scale, Basis: basis}
	p.ChainTables = make([]*ntt.Tables, len(basis.Moduli))
	for i, m := range basis.Moduli {
		p.ChainTables[i] = ntt.NewTables(n, m)
	}
	p.SpecialTable = ntt.NewTables(n, basis.Special)
	return p
}

// TestParameters returns a small but complete parameter set used
// throughout the test suite (fast keygen, 3 multiplicative levels).
func TestParameters() *Parameters {
	return NewParameters(4096, 4, 50, 40, 52, 1<<40)
}

// BenchParameters returns the evaluation-sized parameters of the
// paper's routine benchmarks: N = 32K, RNS size L = 8 (Section IV-C).
func BenchParameters() *Parameters {
	return NewParameters(32768, 8, 52, 42, 54, 1<<42)
}

// MaxLevel is the highest ciphertext level.
func (p *Parameters) MaxLevel() int { return p.Basis.MaxLevel() }

// Slots is the number of complex message slots (N/2).
func (p *Parameters) Slots() int { return p.N / 2 }

// Moduli returns the chain moduli.
func (p *Parameters) Moduli() []xmath.Modulus { return p.Basis.Moduli }

// TablesAt returns the chain tables up to the given level (inclusive).
func (p *Parameters) TablesAt(level int) []*ntt.Tables { return p.ChainTables[:level+1] }

// ModuliAt returns the chain moduli up to the given level (inclusive).
func (p *Parameters) ModuliAt(level int) []xmath.Modulus { return p.Basis.Moduli[:level+1] }

// GaloisElement returns the Galois group element implementing a cyclic
// rotation of the message slots by k (5^k mod 2N; negative k rotates
// the other way).
func (p *Parameters) GaloisElement(k int) uint64 {
	twoN := uint64(2 * p.N)
	order := p.N / 2 // order of 5 in Z_2N^* / {±1}
	kk := ((k % order) + order) % order
	g := uint64(1)
	for i := 0; i < kk; i++ {
		g = (g * 5) % twoN
	}
	return g
}

// GaloisPermutation returns the table that applies the automorphism
// x -> x^galois to NTT-form rows (poly.AutomorphismNTT), built on
// first use and shared read-only afterwards. It is safe for concurrent
// use; callers racing on a first use may each build the table, and all
// get the one that was stored.
func (p *Parameters) GaloisPermutation(galois uint64) []uint32 {
	if perm, ok := p.galoisPerms.Load(galois); ok {
		return perm.([]uint32)
	}
	perm, _ := p.galoisPerms.LoadOrStore(galois, poly.GaloisPermutationNTT(p.N, galois))
	return perm.([]uint32)
}
