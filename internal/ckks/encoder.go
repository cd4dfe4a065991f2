package ckks

import (
	"math"
	"math/big"
	"math/cmplx"

	"xehe/internal/poly"
	"xehe/internal/xmath"
)

// Plaintext is an encoded message: an RNS polynomial (kept in the NTT
// domain, as SEAL does) with its scale and level.
type Plaintext struct {
	Poly  *poly.Poly
	Scale float64
	Level int
}

// Encoder maps complex vectors to ring elements through the canonical
// embedding (Section II-A Encode/Decode): slot j of the message is the
// evaluation of the plaintext polynomial at ζ^{5^j}, ζ = e^{iπ/N}.
type Encoder struct {
	params *Parameters
	m      int          // 2N
	rot    []int        // rotGroup: 5^j mod 2N
	ksi    []complex128 // ksi[k] = e^{2πik/m}
}

// NewEncoder builds the FFT tables of the canonical embedding.
func NewEncoder(params *Parameters) *Encoder {
	n := params.N
	m := 2 * n
	e := &Encoder{params: params, m: m}
	slots := n / 2
	e.rot = make([]int, slots)
	g := 1
	for j := 0; j < slots; j++ {
		e.rot[j] = g
		g = (g * 5) % m
	}
	e.ksi = make([]complex128, m+1)
	for k := 0; k <= m; k++ {
		angle := 2 * math.Pi * float64(k) / float64(m)
		e.ksi[k] = cmplx.Rect(1, angle)
	}
	return e
}

func bitReverseInPlace(v []complex128) {
	n := len(v)
	j := 0
	for i := 1; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			v[i], v[j] = v[j], v[i]
		}
	}
}

// specialInvFFT is the inverse canonical-embedding transform (HEAAN's
// fftSpecialInv): values in slot order to polynomial "coefficients".
func (e *Encoder) specialInvFFT(v []complex128) {
	n := len(v)
	for length := n; length >= 1; length >>= 1 {
		lenh := length >> 1
		lenq := length << 2
		for i := 0; i < n; i += length {
			for j := 0; j < lenh; j++ {
				idx := (lenq - e.rot[j]%lenq) * e.m / lenq
				u := v[i+j] + v[i+j+lenh]
				w := (v[i+j] - v[i+j+lenh]) * e.ksi[idx]
				v[i+j] = u
				v[i+j+lenh] = w
			}
		}
	}
	bitReverseInPlace(v)
	inv := complex(1/float64(n), 0)
	for i := range v {
		v[i] *= inv
	}
}

// specialFFT is the forward transform (decode direction).
func (e *Encoder) specialFFT(v []complex128) {
	n := len(v)
	bitReverseInPlace(v)
	for length := 2; length <= n; length <<= 1 {
		lenh := length >> 1
		lenq := length << 2
		for i := 0; i < n; i += length {
			for j := 0; j < lenh; j++ {
				idx := e.rot[j] % lenq * e.m / lenq
				u := v[i+j]
				w := v[i+j+lenh] * e.ksi[idx]
				v[i+j] = u + w
				v[i+j+lenh] = u - w
			}
		}
	}
}

// Encode embeds values (up to N/2 complex numbers) into a plaintext at
// the given level with the given scale. Shorter inputs are zero-padded.
func (e *Encoder) Encode(values []complex128, scale float64, level int) *Plaintext {
	n := e.params.N
	slots := n / 2
	if len(values) > slots {
		panic("ckks: too many values to encode")
	}
	v := make([]complex128, slots)
	copy(v, values)
	e.specialInvFFT(v)

	moduli := e.params.ModuliAt(level)
	pl := poly.New(n, level+1)
	for j := 0; j < slots; j++ {
		re := math.Round(real(v[j]) * scale)
		im := math.Round(imag(v[j]) * scale)
		encodeCoeff(pl, j, re, moduli)
		encodeCoeff(pl, j+slots, im, moduli)
	}
	poly.NTT(pl, e.params.TablesAt(level))
	return &Plaintext{Poly: pl, Scale: scale, Level: level}
}

// encodeCoeff writes a (possibly huge) float coefficient into RNS form.
func encodeCoeff(pl *poly.Poly, idx int, c float64, moduli []xmath.Modulus) {
	if math.Abs(c) < 9.007199254740992e15 { // 2^53: exact int64 path
		v := int64(c)
		for i, m := range moduli {
			if v >= 0 {
				pl.Coeffs[i][idx] = m.BarrettReduce(uint64(v))
			} else {
				pl.Coeffs[i][idx] = xmath.NegMod(m.BarrettReduce(uint64(-v)), m.Value)
			}
		}
		return
	}
	// Big-float path for very large scales.
	bf := new(big.Float).SetFloat64(c)
	bi, _ := bf.Int(nil)
	neg := bi.Sign() < 0
	bi.Abs(bi)
	tmp := new(big.Int)
	for i, m := range moduli {
		tmp.Mod(bi, new(big.Int).SetUint64(m.Value))
		r := tmp.Uint64()
		if neg {
			r = xmath.NegMod(r, m.Value)
		}
		pl.Coeffs[i][idx] = r
	}
}

// Decode recovers the complex message from a plaintext: each
// coefficient is CRT-composed to its centered representative, rounded
// to float64 exactly (rns.Basis.ComposeCenteredFloat64) and divided by
// the scale. The INTT spreads its rows over the cores; the composition
// runs on the calling goroutine, so the heap objects per call do not
// grow with N or the core count.
func (e *Encoder) Decode(pt *Plaintext) []complex128 {
	n := e.params.N
	slots := n / 2
	p := pt.Poly.Clone()
	if p.IsNTT {
		poly.INTT(p, e.params.TablesAt(pt.Level))
	}
	coeffs := make([]float64, n)
	e.params.Basis.ComposeCenteredFloat64(coeffs, p.Coeffs[:pt.Level+1], pt.Level)
	v := make([]complex128, slots)
	for j := range v {
		v[j] = complex(coeffs[j]/pt.Scale, coeffs[j+slots]/pt.Scale)
	}
	e.specialFFT(v)
	return v
}
