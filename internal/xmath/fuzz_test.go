package xmath

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
)

// fuzzModulus derives a valid modulus (2 <= p < 2^MaxModulusBits) from
// a raw fuzz input, so every input exercises the arithmetic instead of
// the constructor panics.
func fuzzModulus(raw uint64) Modulus {
	p := raw % (uint64(1) << MaxModulusBits)
	if p < 2 {
		p += 2
	}
	return NewModulus(p)
}

// FuzzAddMod cross-checks AddMod and SubMod against math/big.
func FuzzAddMod(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(17))
	f.Add(uint64(1)<<59, uint64(1)<<59-1, uint64(1)<<60-1)
	f.Add(uint64(12345678901234567), uint64(98765432109876543), uint64(1)<<45+59)
	f.Fuzz(func(t *testing.T, ra, rb, rp uint64) {
		m := fuzzModulus(rp)
		p := m.Value
		a, b := ra%p, rb%p

		bigP := new(big.Int).SetUint64(p)
		want := new(big.Int).SetUint64(a)
		want.Add(want, new(big.Int).SetUint64(b)).Mod(want, bigP)
		if got := AddMod(a, b, p); got != want.Uint64() {
			t.Fatalf("AddMod(%d, %d, %d) = %d, want %d", a, b, p, got, want.Uint64())
		}

		want.SetUint64(a)
		want.Sub(want, new(big.Int).SetUint64(b)).Mod(want, bigP)
		if want.Sign() < 0 {
			want.Add(want, bigP)
		}
		if got := SubMod(a, b, p); got != want.Uint64() {
			t.Fatalf("SubMod(%d, %d, %d) = %d, want %d", a, b, p, got, want.Uint64())
		}
	})
}

// FuzzMulMod cross-checks the Barrett-reduction multiplication (and
// the fused multiply-add-mod built on it) against math/big.
func FuzzMulMod(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(17))
	f.Add(uint64(1)<<59, uint64(1)<<59-1, uint64(1)<<59-2, uint64(1)<<60-1)
	f.Add(uint64(3), uint64(5), uint64(7), uint64(1)<<40+21)
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, ra, rb, rc, rp uint64) {
		m := fuzzModulus(rp)
		p := m.Value
		a, b, c := ra%p, rb%p, rc%p
		bigP := new(big.Int).SetUint64(p)

		want := new(big.Int).SetUint64(a)
		want.Mul(want, new(big.Int).SetUint64(b)).Mod(want, bigP)
		if got := m.MulMod(a, b); got != want.Uint64() {
			t.Fatalf("MulMod(%d, %d) mod %d = %d, want %d", a, b, p, got, want.Uint64())
		}

		// MAdMod must equal (a*b + c) mod p with one final reduction.
		want.SetUint64(a)
		want.Mul(want, new(big.Int).SetUint64(b))
		want.Add(want, new(big.Int).SetUint64(c)).Mod(want, bigP)
		if got := m.MAdMod(a, b, c); got != want.Uint64() {
			t.Fatalf("MAdMod(%d, %d, %d) mod %d = %d, want %d", a, b, c, p, got, want.Uint64())
		}
	})
}

// FuzzBarrettReduce cross-checks the one-word Barrett reduction on an
// arbitrary 64-bit input, not only a residue: the CKKS sampler reduces
// raw rng.Uint64() draws with it in place of %, and its uniform
// polynomials are bit-identical only if it is the exact remainder.
func FuzzBarrettReduce(f *testing.F) {
	f.Add(uint64(0), uint64(2))
	f.Add(^uint64(0), uint64(2))
	f.Add(^uint64(0), uint64(3))
	f.Add(^uint64(0), uint64(1)<<60-1)
	f.Add(uint64(1)<<63, uint64(1)<<59+1)
	f.Fuzz(func(t *testing.T, a, rp uint64) {
		m := fuzzModulus(rp)
		want := new(big.Int).SetUint64(a)
		want.Mod(want, new(big.Int).SetUint64(m.Value))
		if got := m.BarrettReduce(a); got != want.Uint64() {
			t.Fatalf("BarrettReduce(%d) mod %d = %d, want %d", a, m.Value, got, want.Uint64())
		}
	})
}

// FuzzBarrettReduce128 cross-checks the two-word Barrett reduction on
// an arbitrary 128-bit input — not only a product of reduced operands,
// which is all MulMod and MAdMod ever hand it: the lazy inner product
// (InnerProductPair) reduces sums of up to MaxLazyTerms such products,
// anywhere below 2^128.
func FuzzBarrettReduce128(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(2))
	f.Add(^uint64(0), ^uint64(0), uint64(1)<<60-1)
	f.Add(^uint64(0), ^uint64(0), uint64(2))
	f.Add(uint64(1)<<63, uint64(0), uint64(1)<<59+1)
	f.Add(uint64(0), ^uint64(0), uint64(3))
	f.Fuzz(func(t *testing.T, hi, lo, rp uint64) {
		m := fuzzModulus(rp)
		want := new(big.Int).SetUint64(hi)
		want.Lsh(want, 64).Add(want, new(big.Int).SetUint64(lo))
		want.Mod(want, new(big.Int).SetUint64(m.Value))
		if got := m.BarrettReduce128(hi, lo); got != want.Uint64() {
			t.Fatalf("BarrettReduce128(%#x, %#x) mod %d = %d, want %d", hi, lo, m.Value, got, want.Uint64())
		}
	})
}

// FuzzHarveyLazy cross-checks the preconditioned (lazy) multiplication
// used by the NTT butterflies: the lazy result must lie in [0, 2p) and
// reduce to the math/big product.
func FuzzHarveyLazy(f *testing.F) {
	f.Add(uint64(5), uint64(3), uint64(1)<<40+21)
	f.Add(uint64(1)<<59, uint64(1)<<59-1, uint64(1)<<60-1)
	f.Fuzz(func(t *testing.T, rw, ry, rp uint64) {
		m := fuzzModulus(rp)
		p := m.Value
		w, y := rw%p, ry%p
		op := NewMulModOperand(w, m)

		lazy := op.MulModLazy(y, p)
		if lazy >= 2*p {
			t.Fatalf("MulModLazy(%d; w=%d, p=%d) = %d, outside [0, 2p)", y, w, p, lazy)
		}
		want := new(big.Int).SetUint64(w)
		want.Mul(want, new(big.Int).SetUint64(y)).Mod(want, new(big.Int).SetUint64(p))
		if got := lazy % p; got != want.Uint64() {
			t.Fatalf("MulModLazy(%d; w=%d, p=%d) reduces to %d, want %d", y, w, p, got, want.Uint64())
		}
		if got := op.MulMod(y, p); got != want.Uint64() {
			t.Fatalf("operand MulMod(%d; w=%d, p=%d) = %d, want %d", y, w, p, got, want.Uint64())
		}
	})
}

// FuzzHarveyLazy52 cross-checks the 52-bit operand the NTT tables hold
// under moduli below 2^50 (NewMulModOperand52) on the butterflies'
// whole lazy range, y in [0, 4p) — the fuzzed y, 4p − 1 and draws
// seeded by it: each lazy result must lie in [0, 2p), reduce to the
// math/big product, and equal what the IFMA kernels compute from the
// same operand — the quotient q = hi52(y·(W' >> 12)), then
// lo52(y·W) + lo52(q·(−p)) masked to 52 bits.
func FuzzHarveyLazy52(f *testing.F) {
	f.Add(uint64(5), uint64(3), uint64(1)<<40+21)
	f.Add(uint64(1)<<50-2, ^uint64(0), uint64(1)<<50-1)
	f.Add(uint64(0xdeadbeef1234), uint64(1)<<51+12345, uint64(1)<<49+1)
	f.Fuzz(func(t *testing.T, rw, ry, rp uint64) {
		p := rp % (1 << 50)
		if p < 2 {
			p += 2
		}
		w := rw % p
		op := NewMulModOperand52(w, NewModulus(p))
		bigP, bigW := new(big.Int).SetUint64(p), new(big.Int).SetUint64(w)
		rng := rand.New(rand.NewSource(int64(ry)))
		for i, y := 0, ry%(4*p); i < 32; i, y = i+1, rng.Uint64()%(4*p) {
			if i == 1 {
				y = 4*p - 1
			}
			lazy := op.MulModLazy(y, p)
			if lazy >= 2*p {
				t.Fatalf("MulModLazy(%d; w=%d, p=%d) = %d, outside [0, 2p)", y, w, p, lazy)
			}
			want := new(big.Int).SetUint64(y)
			want.Mul(want, bigW).Mod(want, bigP)
			if got := lazy % p; got != want.Uint64() {
				t.Fatalf("MulModLazy(%d; w=%d, p=%d) reduces to %d, want %d", y, w, p, got, want.Uint64())
			}
			const mask52 = 1<<52 - 1
			hi, lo := bits.Mul64(y, op.Quotient>>12)
			q := hi<<12 | lo>>52
			if ifma := (y*w&mask52 + q*-p&mask52) & mask52; lazy != ifma {
				t.Fatalf("MulModLazy(%d; w=%d, p=%d) = %d, the IFMA product gives %d", y, w, p, lazy, ifma)
			}
		}
	})
}

// ifmaWideLazy is the lazy product of internal/ntt's IFMA-wide kernels
// (MULLAZY in its vector_amd64.s) written in Go, each 52-bit
// multiply-add as IFMA does it, the low or high 52 bits of the 104-bit
// product of its operands' low 52 bits: y is reduced from [0, 4p) to
// [0, p) by two conditional subtractions, Q = hi52(y·(W' >> 12)), and
// with p' = 2^52 − p the result is ((H − Q) << 52) + L for
// L = lo52(y·W) + lo52(Q·p') and H = hi52(y·W) + hi52(Q·p'), mod 2^64.
func ifmaWideLazy(op MulModOperand, y, p uint64) uint64 {
	const mask52 = 1<<52 - 1
	lo52 := func(a, b uint64) uint64 { return (a & mask52) * (b & mask52) & mask52 }
	hi52 := func(a, b uint64) uint64 { hi, lo := bits.Mul64(a&mask52, b&mask52); return hi<<12 | lo>>52 }
	y = min(y, y-2*p)
	y = min(y, y-p)
	q := hi52(y, op.Quotient>>12)
	pp := 1<<52 - p
	l := lo52(y, op.Operand) + lo52(q, pp)
	h := hi52(y, op.Operand) + hi52(q, pp)
	return (h-q)<<52 + l
}

// FuzzHarveyLazyWide cross-checks ifmaWideLazy against math/big for
// moduli 2^50 <= p < 2^52 — the IFMA-wide kernels' class, whose tables
// hold NewMulModOperand's 64-bit quotients — on the butterflies' whole
// lazy range, y in [0, 4p): the fuzzed y, 4p − 1 and draws seeded by
// it. The quotient shifted right by 12 must be floor(W·2^52/p) exactly,
// and each product must lie in [0, 2p) and reduce to y·W mod p.
// Dropping either conditional subtraction, or the − Q from the high
// word, fails here.
func FuzzHarveyLazyWide(f *testing.F) {
	f.Add(uint64(5), uint64(3), uint64(0))
	f.Add(^uint64(0), ^uint64(0), uint64(1)<<51-1)
	f.Add(uint64(0xdeadbeef1234), uint64(1)<<53+12345, uint64(1)<<51+77)
	f.Add(uint64(1)<<51, uint64(1)<<52-3, uint64(1)<<52-3)
	f.Fuzz(func(t *testing.T, rw, ry, rp uint64) {
		p := 1<<50 + rp%(3<<50)
		w := rw % p
		op := NewMulModOperand(w, NewModulus(p))
		bigP, bigW := new(big.Int).SetUint64(p), new(big.Int).SetUint64(w)
		ratio := new(big.Int).Lsh(bigW, 52)
		if ratio.Div(ratio, bigP); op.Quotient>>12 != ratio.Uint64() {
			t.Fatalf("w=%d, p=%d: quotient >> 12 = %d, floor(W·2^52/p) = %d", w, p, op.Quotient>>12, ratio.Uint64())
		}
		rng := rand.New(rand.NewSource(int64(ry)))
		for i, y := 0, ry%(4*p); i < 32; i, y = i+1, rng.Uint64()%(4*p) {
			if i == 1 {
				y = 4*p - 1
			}
			lazy := ifmaWideLazy(op, y, p)
			if lazy >= 2*p {
				t.Fatalf("wide product(%d; w=%d, p=%d) = %d, outside [0, 2p)", y, w, p, lazy)
			}
			want := new(big.Int).SetUint64(y)
			want.Mul(want, bigW).Mod(want, bigP)
			if got := lazy % p; got != want.Uint64() {
				t.Fatalf("wide product(%d; w=%d, p=%d) reduces to %d, want %d", y, w, p, got, want.Uint64())
			}
		}
	})
}

// FuzzInnerProductPair cross-checks the dispatched lazy inner product —
// the AVX-512 body where the host has one, with the IFMA body on and
// off — against the Go loop, on random moduli up to 60 bits, 1 to 40
// terms (the vector bodies take up to 16), a range [lo, n) in rows up
// to 511 long, and operands drawn from a seed by randomTerms (0 and p−1
// mixed in, or all near p−1). The seeds hold the edges of the IFMA
// class: the power of two 2^42, whose 52-bit ratio would be 2^52, and
// 2^50 − 27, the largest products the fold takes.
func FuzzInnerProductPair(f *testing.F) {
	f.Add(uint64(1)<<60-1, int64(1), uint8(15), uint8(0), uint8(64), true)
	f.Add(uint64(0xb4f3a1c2d5e6f79), int64(5), uint8(15), uint8(0), uint8(64), true)
	f.Add(uint64(1)<<54-33, int64(2), uint8(8), uint8(3), uint8(37), false)
	f.Add(uint64(2), int64(3), uint8(16), uint8(7), uint8(200), true)
	f.Add(uint64(1)<<42-11, int64(4), uint8(39), uint8(1), uint8(16), false)
	f.Add(uint64(1)<<42, int64(6), uint8(15), uint8(0), uint8(64), true)
	f.Add(uint64(1)<<50-27, int64(7), uint8(15), uint8(0), uint8(64), true)
	f.Fuzz(func(t *testing.T, rawP uint64, seed int64, rawTerms, lo, span uint8, top bool) {
		m := fuzzModulus(rawP)
		rng := rand.New(rand.NewSource(seed))
		terms, n := int(rawTerms)%40+1, int(lo)+int(span)+1
		d := randomTerms(rng, m.Value, terms, n, top)
		b := randomTerms(rng, m.Value, terms, n, top)
		a := randomTerms(rng, m.Value, terms, n, top)
		withoutIFMA(func(bool) { checkInnerProductPair(t, m, d, b, a, int(lo), n) })
	})
}

// FuzzReduceRow cross-checks ReduceRow — the AVX-512 body where the
// host has one, with the IFMA body on and off, and its Go tail —
// against BarrettReduce on a row of arbitrary 64-bit words, ending in
// 2^64−1. The seeds hold rows of 2^64−1 on both sides of 2^12, below
// which the IFMA body's c1 = V >> s would not fit 52 bits.
func FuzzReduceRow(f *testing.F) {
	f.Add(uint64(1)<<60-1, []byte{})
	f.Add(uint64(2), make([]byte, 64))
	words := make([]byte, 256)
	for i := range words {
		words[i] = byte(i * 167)
	}
	f.Add(uint64(0x2b7e151628aed3), words)
	f.Add(uint64(1)<<MaxModulusBits-1, bytes.Repeat([]byte{0xff}, 64))
	f.Add(uint64(1)<<54-33, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint64(1)<<12+1, bytes.Repeat([]byte{0xff}, 64))
	f.Add(uint64(1)<<12-3, bytes.Repeat([]byte{0xff}, 64))
	f.Add(uint64(1)<<50-27, words)
	f.Fuzz(func(t *testing.T, rawP uint64, raw []byte) {
		m := fuzzModulus(rawP)
		src := make([]uint64, 0, len(raw)/8+1)
		for ; len(raw) >= 8; raw = raw[8:] {
			src = append(src, binary.LittleEndian.Uint64(raw))
		}
		src = append(src, ^uint64(0))
		dst := make([]uint64, len(src))
		withoutIFMA(func(ifma bool) {
			m.ReduceRow(dst, src)
			for x, v := range src {
				if want := m.BarrettReduce(v); dst[x] != want {
					t.Fatalf("ReduceRow mod %d (IFMA %v): x = %d gives %d for %d, want %d", m.Value, ifma, x, dst[x], v, want)
				}
			}
		})
	})
}

// fuzzRow runs the row primitive f against its oracle, with the IFMA
// bodies on and off, on random moduli up to 60 bits, a range [lo, n)
// in rows up to 511 long (so its ends fall anywhere around a multiple
// of eight), and operands drawn from a seed by randomTerms (0 and p−1
// mixed in, or all near p−1).
func fuzzRow(t *testing.T, f rowPrim, rawP uint64, seed int64, lo, span uint8, top bool) {
	m := fuzzModulus(rawP)
	rng := rand.New(rand.NewSource(seed))
	n := int(lo) + int(span) + 1
	init, ins := randomTerms(rng, m.Value, f.outs, n, top), randomTerms(rng, m.Value, f.ins, n, top)
	withoutIFMA(func(bool) { checkRow(t, f, m, init, ins, int(lo), n) })
}

// rowPrimNamed returns the rowPrims entry of that name.
func rowPrimNamed(name string) rowPrim {
	for _, f := range rowPrims {
		if f.name == name {
			return f
		}
	}
	panic("xmath: no row primitive " + name)
}

// addRowSeeds seeds the row fuzz targets: a 60-bit modulus, one far
// from a power of two, a 54-bit one, p = 2, a 42-bit one, and the IFMA
// class's edges 2^50 − 27 and the power of two 2^42, with ranges from
// empty to 200 long.
func addRowSeeds(f *testing.F, extra ...any) {
	for _, s := range [][]any{
		{uint64(1)<<60 - 1, int64(1), uint8(0), uint8(64), true},
		{uint64(0xb4f3a1c2d5e6f79), int64(5), uint8(3), uint8(37), true},
		{uint64(1)<<54 - 33, int64(2), uint8(7), uint8(16), false},
		{uint64(2), int64(3), uint8(1), uint8(200), false},
		{uint64(1)<<42 - 11, int64(4), uint8(8), uint8(0), true},
		{uint64(1)<<50 - 27, int64(6), uint8(5), uint8(120), true},
		{uint64(1) << 42, int64(7), uint8(2), uint8(90), false},
	} {
		f.Add(append(s, extra...)...)
	}
}

// FuzzTensorRow cross-checks the dispatched tensor row against its Go
// loop, as a product of two pairs and as a square.
func FuzzTensorRow(f *testing.F) {
	addRowSeeds(f, false)
	addRowSeeds(f, true)
	f.Fuzz(func(t *testing.T, rawP uint64, seed int64, lo, span uint8, top, square bool) {
		name := "TensorRow"
		if square {
			name = "TensorRow/square"
		}
		fuzzRow(t, rowPrimNamed(name), rawP, seed, lo, span, top)
	})
}

// FuzzMulAddRow cross-checks the dispatched multiply-add row against
// its Go loop with no addend, another row as the addend, and the output
// itself as the addend (addend % 3 picks which).
func FuzzMulAddRow(f *testing.F) {
	for addend := range uint8(3) {
		addRowSeeds(f, addend)
	}
	f.Fuzz(func(t *testing.T, rawP uint64, seed int64, lo, span uint8, top bool, addend uint8) {
		name := [3]string{"MulAddRow", "MulAddRow/add", "MulAddRow/dst"}[addend%3]
		fuzzRow(t, rowPrimNamed(name), rawP, seed, lo, span, top)
	})
}

// FuzzAddRow cross-checks the dispatched add row against its Go loop.
func FuzzAddRow(f *testing.F) {
	addRowSeeds(f)
	f.Fuzz(func(t *testing.T, rawP uint64, seed int64, lo, span uint8, top bool) {
		fuzzRow(t, rowPrimNamed("AddRow"), rawP, seed, lo, span, top)
	})
}

// subMulPrim is SubMulRow by w as a rowPrim, its oracle the SubMod,
// MulMod, AddMod chain per coefficient, with in[1] as the addend when
// withAdd is set.
func subMulPrim(w MulModOperand, withAdd bool) rowPrim {
	addend := func(in [][]uint64) []uint64 {
		if withAdd {
			return in[1]
		}
		return nil
	}
	return rowPrim{"SubMulRow", 1, 2,
		func(m Modulus, o, in [][]uint64) { w.SubMulRow(o[0], in[0], addend(in), m.Value) },
		func(m Modulus, o, in [][]uint64) {
			p, add := m.Value, addend(in)
			for x := range o[0] {
				v := w.MulMod(SubMod(in[0][x], o[0][x], p), p)
				if add != nil {
					v = AddMod(v, add[x], p)
				}
				o[0][x] = v
			}
		}}
}

// FuzzSubMulRow cross-checks SubMulRow — the AVX-512 body where the
// host has one, with the IFMA body on and off, and its Go tail —
// against its definition, with a random operand W and with and without
// an addend.
func FuzzSubMulRow(f *testing.F) {
	addRowSeeds(f, uint64(0), false)
	addRowSeeds(f, ^uint64(0), true)
	f.Fuzz(func(t *testing.T, rawP uint64, seed int64, lo, span uint8, top bool, rawW uint64, withAdd bool) {
		w := NewMulModOperand(rawW, fuzzModulus(rawP))
		fuzzRow(t, subMulPrim(w, withAdd), rawP, seed, lo, span, top)
	})
}
