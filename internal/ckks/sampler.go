package ckks

import (
	"math"
	"math/rand"

	"xehe/internal/poly"
	"xehe/internal/xmath"
)

// Sampler draws the random polynomials the scheme needs: uniform ring
// elements, ternary secrets, and discrete Gaussian errors (σ = 3.2,
// the SEAL default). It is deterministic given a seed, which keeps the
// reproduction's tests and benchmarks repeatable; a production library
// would swap in crypto/rand.
type Sampler struct {
	rng   *rand.Rand
	sigma float64
}

// NewSampler creates a sampler with the given seed.
func NewSampler(seed int64) *Sampler {
	return &Sampler{rng: rand.New(rand.NewSource(seed)), sigma: 3.2}
}

// UniformPoly fills a new polynomial with independent uniform residues.
// BarrettReduce is the exact remainder of any 64-bit draw, so the
// residues are those of rng.Uint64() % q.
func (s *Sampler) UniformPoly(n int, moduli []xmath.Modulus) *poly.Poly {
	p := poly.New(n, len(moduli))
	for i, m := range moduli {
		c := p.Coeffs[i]
		for j := range c {
			c[j] = m.BarrettReduce(s.rng.Uint64())
		}
	}
	return p
}

// TernaryPoly samples coefficients from {-1, 0, 1} and represents them
// under every modulus.
func (s *Sampler) TernaryPoly(n int, moduli []xmath.Modulus) *poly.Poly {
	p := poly.New(n, len(moduli))
	c := p.Coeffs[0]
	for j := range c {
		c[j] = uint64(int64(s.rng.Intn(3) - 1)) // -1, 0, 1
	}
	spreadSigned(p, moduli)
	return p
}

// GaussianPoly samples rounded Gaussian coefficients (σ=3.2, clamped
// to ±6σ) represented under every modulus.
func (s *Sampler) GaussianPoly(n int, moduli []xmath.Modulus) *poly.Poly {
	p := poly.New(n, len(moduli))
	c := p.Coeffs[0]
	bound := 6 * s.sigma
	for j := range c {
		g := s.rng.NormFloat64() * s.sigma
		if g > bound {
			g = bound
		} else if g < -bound {
			g = -bound
		}
		c[j] = uint64(int64(math.Round(g)))
	}
	spreadSigned(p, moduli)
	return p
}

// spreadSigned takes row 0 of p as small signed coefficients in two's
// complement, as the samplers draw them, and writes each under every
// modulus: v >= 0 stays, v < 0 becomes q + v. Row 0 is converted last,
// in place, once the other rows have read it.
func spreadSigned(p *poly.Poly, moduli []xmath.Modulus) {
	src := p.Coeffs[0]
	for i := len(moduli) - 1; i >= 0; i-- {
		q, dst := moduli[i].Value, p.Coeffs[i]
		for j, v := range src {
			dst[j] = v + q&uint64(int64(v)>>63)
		}
	}
}
