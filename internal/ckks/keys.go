package ckks

import (
	"sync"

	"xehe/internal/ntt"
	"xehe/internal/poly"
	"xehe/internal/xmath"
)

// SecretKey is a ternary ring element, stored in NTT form under every
// chain modulus plus the special prime.
type SecretKey struct {
	// Value has MaxLevel+2 components: chain moduli then special.
	Value *poly.Poly
}

// PublicKey is an RLWE encryption of zero: (b, a) with
// b = -(a·s + e), in NTT form under the chain moduli.
type PublicKey struct {
	B, A *poly.Poly
}

// SwitchKey is a key-switching key: for each decomposition digit i
// (one per chain modulus) an RLWE pair under the extended basis
// {q_0..q_L, p} encrypting P·q̃_i·s_from (Section II-A Relin).
type SwitchKey struct {
	B, A []*poly.Poly // indexed by digit
}

// RelinKey switches s² back to s after multiplication.
type RelinKey struct{ SwitchKey }

// GaloisKey switches s(x^g) to s for one Galois element.
type GaloisKey struct {
	Galois uint64
	SwitchKey
}

// KeyGenerator produces all key material.
type KeyGenerator struct {
	params  *Parameters
	sampler *Sampler
}

// NewKeyGenerator creates a generator with a deterministic sampler.
func NewKeyGenerator(params *Parameters, seed int64) *KeyGenerator {
	return &KeyGenerator{params: params, sampler: NewSampler(seed)}
}

// extModuli returns the chain moduli plus the special prime.
func (kg *KeyGenerator) extModuli() []xmath.Modulus {
	return append(append([]xmath.Modulus{}, kg.params.Basis.Moduli...), kg.params.Basis.Special)
}

// extTables returns the chain tables plus the special prime's.
func (kg *KeyGenerator) extTables() []*ntt.Tables {
	return append(append([]*ntt.Tables{}, kg.params.ChainTables...), kg.params.SpecialTable)
}

// GenSecretKey samples a ternary secret.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	moduli := kg.extModuli()
	s := kg.sampler.TernaryPoly(kg.params.N, moduli)
	poly.NTT(s, kg.extTables())
	return &SecretKey{Value: s}
}

// GenPublicKey encrypts zero under the chain moduli.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	moduli := kg.params.Basis.Moduli
	tbls := kg.params.ChainTables
	n := kg.params.N
	a := kg.sampler.UniformPoly(n, moduli)
	a.IsNTT = true // uniform in NTT domain is uniform
	e := kg.sampler.GaussianPoly(n, moduli)
	poly.NTT(e, tbls)

	b := poly.New(n, len(moduli))
	b.IsNTT = true
	skChain := chainPart(sk.Value, len(moduli))
	poly.MulInto(b, a, skChain, moduli) // a*s
	poly.NegInto(b, b, moduli)          // -(a*s)
	poly.SubInto(b, b, e, moduli)       // -(a*s) - e
	return &PublicKey{B: b, A: a}
}

// chainPart views the first k components of an extended-basis poly.
func chainPart(p *poly.Poly, k int) *poly.Poly {
	return &poly.Poly{N: p.N, Coeffs: p.Coeffs[:k], IsNTT: p.IsNTT}
}

// genSwitchKey builds a switching key from `from` (NTT form, extended
// basis) to the secret key: digit i encrypts P·q̃_i·from. The calling
// goroutine draws every digit's a and e, in digit order, so the key is
// the same at any core count; each digit's arithmetic runs on its own
// goroutine meanwhile, and all are joined before it returns.
func (kg *KeyGenerator) genSwitchKey(sk *SecretKey, from *poly.Poly) SwitchKey {
	params := kg.params
	n := params.N
	moduli := kg.extModuli()
	tbls := kg.extTables()
	L := params.MaxLevel()
	digits := L + 1
	swk := SwitchKey{B: make([]*poly.Poly, digits), A: make([]*poly.Poly, digits)}
	var wg sync.WaitGroup
	for i := 0; i < digits; i++ {
		a := kg.sampler.UniformPoly(n, moduli)
		a.IsNTT = true
		e := kg.sampler.GaussianPoly(n, moduli)
		swk.A[i] = a
		wg.Add(1)
		go func() {
			defer wg.Done()
			poly.NTT(e, tbls)
			b := poly.New(n, len(moduli))
			b.IsNTT = true
			poly.MulInto(b, a, sk.Value, moduli) // a*s
			poly.NegInto(b, b, moduli)           // -(a*s)
			poly.SubInto(b, b, e, moduli)        // -(a*s) - e

			// Add P·q̃_i·from on component i only (q̃_i ≡ δ_ij mod q_j and
			// P ≡ 0 mod p, so every other component gets nothing).
			mi := params.Basis.Moduli[i]
			pModQi := params.Basis.SpecialModQi(L, i)
			bi, fi := b.Coeffs[i], from.Coeffs[i]
			for j := 0; j < n; j++ {
				bi[j] = mi.MAdMod(pModQi, fi[j], bi[j])
			}
			swk.B[i] = b
		}()
	}
	wg.Wait()
	return swk
}

// GenRelinKey produces the relinearization key (switches s² to s).
func (kg *KeyGenerator) GenRelinKey(sk *SecretKey) *RelinKey {
	moduli := kg.extModuli()
	s2 := poly.New(kg.params.N, len(moduli))
	poly.MulInto(s2, sk.Value, sk.Value, moduli)
	s2.IsNTT = true
	return &RelinKey{kg.genSwitchKey(sk, s2)}
}

// GenGaloisKey produces the key for one Galois element (used by
// Rotate with g = 5^k mod 2N).
func (kg *KeyGenerator) GenGaloisKey(sk *SecretKey, galois uint64) *GaloisKey {
	moduli := kg.extModuli()
	tbls := kg.extTables()
	sCoeff := sk.Value.Clone()
	poly.INTT(sCoeff, tbls)
	sG := poly.New(kg.params.N, len(moduli))
	poly.Automorphism(sG, sCoeff, galois, moduli)
	poly.NTT(sG, tbls)
	return &GaloisKey{Galois: galois, SwitchKey: kg.genSwitchKey(sk, sG)}
}
