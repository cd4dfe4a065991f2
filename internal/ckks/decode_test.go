package ckks

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"xehe/internal/poly"
	"xehe/internal/race"
)

// decodeBig is Decode as it was on math/big: every coefficient composed
// by the CRT over the level's moduli, centered and rounded through
// big.Float. It is the oracle of the limb path and shares nothing with
// rns but the moduli.
func decodeBig(e *Encoder, pt *Plaintext) []complex128 {
	n := e.params.N
	slots := n / 2
	p := pt.Poly.Clone()
	if p.IsNTT {
		poly.INTT(p, e.params.TablesAt(pt.Level))
	}
	// x = sum_i [r_i * (Q/q_i)^{-1}]_{q_i} * (Q/q_i) mod Q, then centered.
	moduli := e.params.ModuliAt(pt.Level)
	q := big.NewInt(1)
	for _, m := range moduli {
		q.Mul(q, new(big.Int).SetUint64(m.Value))
	}
	half := new(big.Int).Rsh(q, 1)
	qHat := make([]*big.Int, len(moduli))
	for i, m := range moduli {
		qi := new(big.Int).SetUint64(m.Value)
		qHat[i] = new(big.Int).Div(q, qi)
		inv := new(big.Int).ModInverse(qHat[i], qi)
		qHat[i].Mul(qHat[i], inv)
	}
	coeff := func(idx int) float64 {
		x := new(big.Int)
		for i := range moduli {
			x.Add(x, new(big.Int).Mul(qHat[i], new(big.Int).SetUint64(p.Coeffs[i][idx])))
		}
		x.Mod(x, q)
		if x.Cmp(half) > 0 {
			x.Sub(x, q)
		}
		f, _ := new(big.Float).SetInt(x).Float64()
		return f / pt.Scale
	}
	v := make([]complex128, slots)
	for j := range v {
		v[j] = complex(coeff(j), coeff(j+slots))
	}
	e.specialFFT(v)
	return v
}

// uniformPlaintext draws every residue uniformly, so the composed
// coefficients cover all of [-Q/2, Q/2) at the level.
func uniformPlaintext(params *Parameters, level int, rng *rand.Rand) *Plaintext {
	p := poly.New(params.N, level+1)
	for i, m := range params.ModuliAt(level) {
		for k := range p.Coeffs[i] {
			p.Coeffs[i][k] = rng.Uint64() % m.Value
		}
	}
	return &Plaintext{Poly: p, Scale: params.Scale, Level: level}
}

// Decode must equal the math/big decode bit for bit at every level of
// both parameter sets: on encoded messages, on uniformly random
// polynomials, and after a rescale, whose scale is not a power of two.
func TestDecodeMatchesBigOracle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params func() *Parameters
	}{{"demo", TestParameters}, {"bench", BenchParameters}} {
		t.Run(tc.name, func(t *testing.T) {
			if race.Enabled && tc.name == "bench" {
				t.Skip("single-goroutine arithmetic: the demo size covers it under the race detector")
			}
			params := tc.params()
			enc := NewEncoder(params)
			ev := NewEvaluator(params, nil)
			rng := rand.New(rand.NewSource(5))
			for level := 0; level <= params.MaxLevel(); level++ {
				msg := enc.Encode(randomValues(params.Slots(), int64(level)), params.Scale, level)
				pts := map[string]*Plaintext{"message": msg, "uniform": uniformPlaintext(params, level, rng)}
				if level > 0 {
					rs := ev.Rescale(&Ciphertext{Value: []*poly.Poly{msg.Poly}, Scale: msg.Scale, Level: level})
					pts["rescaled"] = &Plaintext{Poly: rs.Value[0], Scale: rs.Scale, Level: rs.Level}
				}
				for kind, pt := range pts {
					got, want := enc.Decode(pt), decodeBig(enc, pt)
					for j := range want {
						for _, pair := range [][2]float64{{real(got[j]), real(want[j])}, {imag(got[j]), imag(want[j])}} {
							if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
								t.Fatalf("level %d, %s plaintext, slot %d: Decode %v, math/big %v", level, kind, j, got[j], want[j])
							}
						}
					}
				}
			}
		})
	}
}

// Decode allocates a fixed number of blocks, none per coefficient.
func TestDecodeAllocsDoNotGrowWithN(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const bound = 8
	var allocs []float64
	for _, params := range []*Parameters{TestParameters(), BenchParameters()} {
		enc := NewEncoder(params)
		pt := enc.Encode(randomValues(params.Slots(), 1), params.Scale, params.MaxLevel())
		allocs = append(allocs, testing.AllocsPerRun(3, func() { enc.Decode(pt) }))
	}
	if allocs[0] != allocs[1] || allocs[1] > bound {
		t.Fatalf("Decode allocates %v objects at N = 4096 and %v at N = 32768; want the same, at most %d", allocs[0], allocs[1], bound)
	}
}
