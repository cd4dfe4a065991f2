package xmath

import (
	"math/rand"
	"slices"
	"testing"
)

// randomTerms returns terms rows of n reduced operands, with the edge
// values 0 and p−1 mixed in, or, when top is set, every operand within
// 16 of p−1: then every product (p−i)(p−j) is ij above a multiple of
// p, so the sums are the largest there are and sit just above a
// multiple of p, where the Barrett quotient estimate runs one short and
// its carries must all be counted.
func randomTerms(rng *rand.Rand, p uint64, terms, n int, top bool) [][]uint64 {
	rows := make([][]uint64, terms)
	for i := range rows {
		rows[i] = make([]uint64, n)
		for x := range rows[i] {
			switch r := rng.Intn(8); {
			case top:
				rows[i][x] = p - 1 - uint64(rng.Int63n(int64(min(p, 16))))
			case r == 0:
				rows[i][x] = p - 1
			case r == 1:
			default:
				rows[i][x] = rng.Uint64() % p
			}
		}
	}
	return rows
}

// checkInnerProductPair compares InnerProductPair, which runs the
// vector body where the host has one, with the Go loop over [lo, hi)
// of rows n long, and checks both leave the outputs outside the range
// alone.
func checkInnerProductPair(t *testing.T, m Modulus, d, b, a [][]uint64, lo, hi int) {
	t.Helper()
	n := len(d[0])
	var outs [4][]uint64
	for i := range outs {
		outs[i] = make([]uint64, n)
		for x := range outs[i] {
			outs[i][x] = 0xdead
		}
	}
	m.InnerProductPair(outs[0], outs[1], d, b, a, lo, hi)
	m.innerProductPairGo(outs[2], outs[3], d, b, a, lo, hi)
	for x := 0; x < n; x++ {
		if outs[0][x] != outs[2][x] || outs[1][x] != outs[3][x] {
			t.Fatalf("p = %d, %d terms, [%d, %d): x = %d gives (%d, %d), the Go loop (%d, %d)",
				m.Value, len(d), lo, hi, x, outs[0][x], outs[1][x], outs[2][x], outs[3][x])
		}
		if (x < lo || x >= hi) && outs[0][x] != 0xdead {
			t.Fatalf("p = %d, %d terms, [%d, %d): x = %d outside the range written", m.Value, len(d), lo, hi, x)
		}
	}
}

// TestInnerProductPairVectorMatchesGo pins the dispatched inner product
// to the Go loop around the vector body's edges: term counts on both
// sides of its bound (vectorTerms; longer chains go to the Go loop),
// ranges whose ends sit 0…7 off a multiple of eight, moduli from 2 to
// 60 bits, and operands at the top of the range (randomTerms) — the
// largest partial sums, the most carries in the 128-bit combine, and
// the sums whose reduction needs every carry of the quotient estimate.
func TestInnerProductPairVectorMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Moduli just below a power of two have a small low ratio word r0,
	// which hides a dropped carry of the quotient estimate; the two
	// spread-out ones (54 and 60 bits) do not.
	moduli := []uint64{2, 3, 1<<30 - 35, 1<<42 - 11, 1<<54 - 33, 0x2b7e151628aed3, testPrime, 0xb4f3a1c2d5e6f79, 1<<MaxModulusBits - 1}
	for _, p := range moduli {
		m := NewModulus(p)
		for _, terms := range []int{1, 2, 9, 15, 16, 17, 33} {
			for _, top := range []bool{false, true} {
				const n = 264
				d, b, a := randomTerms(rng, p, terms, n, top), randomTerms(rng, p, terms, n, top), randomTerms(rng, p, terms, n, top)
				for off := 0; off < 8; off++ {
					checkInnerProductPair(t, m, d, b, a, off, n-off)
					checkInnerProductPair(t, m, d, b, a, 8, 8+off)
					checkInnerProductPair(t, m, d, b, a, off, 24)
				}
			}
		}
	}
}

// TestReduceRowMatchesBarrettReduce pins ReduceRow to BarrettReduce on
// arbitrary 64-bit inputs, 2^64−1 included, at every length 0…24 (the
// vector prefix and the Go tail) and on a dst longer than src.
func TestReduceRowMatchesBarrettReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, p := range []uint64{2, 3, 1<<30 - 35, 1<<54 - 33, 0x2b7e151628aed3, testPrime, 0xb4f3a1c2d5e6f79, 1<<MaxModulusBits - 1} {
		m := NewModulus(p)
		for n := 0; n <= 24; n++ {
			src := make([]uint64, n)
			for x := range src {
				switch rng.Intn(4) {
				case 0:
					src[x] = ^uint64(0) - uint64(rng.Intn(3))
				case 1:
					src[x] = p - uint64(rng.Intn(2))
				default:
					src[x] = rng.Uint64()
				}
			}
			dst := make([]uint64, n+1)
			dst[n] = 0xdead
			m.ReduceRow(dst, src)
			for x, v := range src {
				if want := m.BarrettReduce(v); dst[x] != want {
					t.Fatalf("ReduceRow at p = %d, n = %d: x = %d gives %d for %d, want %d", p, n, x, dst[x], v, want)
				}
			}
			if dst[n] != 0xdead {
				t.Fatalf("ReduceRow at n = %d wrote past src", n)
			}
		}
	}
}

// TestSubMulRowMatchesScalar pins SubMulRow to its definition, the
// SubMod, MulMod, AddMod chain per coefficient, with and without an
// addend, at every length 0…24 and moduli from 2 to 60 bits.
func TestSubMulRowMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, p := range []uint64{2, 3, 1<<30 - 35, 1<<54 - 33, testPrime, 1<<MaxModulusBits - 1} {
		m := NewModulus(p)
		w := NewMulModOperand(rng.Uint64(), m)
		for n := 0; n <= 24; n++ {
			rows := randomTerms(rng, p, 3, n, false)
			for _, add := range [][]uint64{nil, rows[2]} {
				dst := append(make([]uint64, 0, n+1), rows[0]...)
				w.SubMulRow(dst, rows[1], add, p)
				for x := range dst {
					want := w.MulMod(SubMod(rows[1][x], rows[0][x], p), p)
					if add != nil {
						want = AddMod(want, add[x], p)
					}
					if dst[x] != want {
						t.Fatalf("SubMulRow at p = %d, n = %d, addend %t: x = %d gives %d, want %d", p, n, add != nil, x, dst[x], want)
					}
				}
			}
		}
	}
}

// rowPrim is one of the elementwise row primitives, dispatched and as
// its oracle (its Go loop but for the square), over outs output rows
// and ins input rows of one range.
type rowPrim struct {
	name               string
	outs, ins          int
	dispatched, oracle func(m Modulus, outs, ins [][]uint64)
}

// rowPrims lists every row primitive with the addend cases MulAddRow
// has in use: none (a product), another row, and the output itself.
// The square is TensorRow with b = a, checked against the loop the
// evaluator's square kernel ran before it called TensorRow: a0a1
// reduced, then doubled with AddMod.
var rowPrims = []rowPrim{
	{"AddRow", 1, 2,
		func(m Modulus, o, i [][]uint64) { m.AddRow(o[0], i[0], i[1]) },
		func(m Modulus, o, i [][]uint64) { addRowGo(o[0], i[0], i[1], m.Value) }},
	{"MulAddRow", 1, 2,
		func(m Modulus, o, i [][]uint64) { m.MulAddRow(o[0], i[0], i[1], nil) },
		func(m Modulus, o, i [][]uint64) { m.mulAddRowGo(o[0], i[0], i[1], nil) }},
	{"MulAddRow/add", 1, 3,
		func(m Modulus, o, i [][]uint64) { m.MulAddRow(o[0], i[0], i[1], i[2]) },
		func(m Modulus, o, i [][]uint64) { m.mulAddRowGo(o[0], i[0], i[1], i[2]) }},
	{"MulAddRow/dst", 1, 2,
		func(m Modulus, o, i [][]uint64) { m.MulAddRow(o[0], i[0], i[1], o[0]) },
		func(m Modulus, o, i [][]uint64) { m.mulAddRowGo(o[0], i[0], i[1], o[0]) }},
	{"TensorRow", 3, 4,
		func(m Modulus, o, i [][]uint64) { m.TensorRow(o[0], o[1], o[2], i[0], i[1], i[2], i[3]) },
		func(m Modulus, o, i [][]uint64) { m.tensorRowGo(o[0], o[1], o[2], i[0], i[1], i[2], i[3]) }},
	{"TensorRow/square", 3, 2,
		func(m Modulus, o, i [][]uint64) { m.TensorRow(o[0], o[1], o[2], i[0], i[1], i[0], i[1]) },
		func(m Modulus, o, i [][]uint64) {
			for x := range o[0] {
				a0, a1 := i[0][x], i[1][x]
				cross := m.MulMod(a0, a1)
				o[0][x], o[1][x], o[2][x] = m.MulMod(a0, a0), AddMod(cross, cross, m.Value), m.MulMod(a1, a1)
			}
		}},
}

// checkRow runs f's dispatched path and its oracle over [lo, hi) of
// the rows, the outputs starting out as init (the addend when it is
// the output), and requires every output word to agree and to stay
// init outside the range.
func checkRow(t *testing.T, f rowPrim, m Modulus, init, ins [][]uint64, lo, hi int) {
	t.Helper()
	run := func(body func(Modulus, [][]uint64, [][]uint64)) [][]uint64 {
		outs := make([][]uint64, len(init))
		o, in := make([][]uint64, len(init)), make([][]uint64, len(ins))
		for i := range init {
			outs[i] = slices.Clone(init[i])
			o[i] = outs[i][lo:hi]
		}
		for i := range ins {
			in[i] = ins[i][lo:hi]
		}
		body(m, o, in)
		return outs
	}
	got, want := run(f.dispatched), run(f.oracle)
	for i := range got {
		for x, v := range got[i] {
			if v != want[i][x] {
				t.Fatalf("%s at p = %d, [%d, %d): output %d, x = %d gives %d, the oracle %d", f.name, m.Value, lo, hi, i, x, v, want[i][x])
			}
			if (x < lo || x >= hi) && v != init[i][x] {
				t.Fatalf("%s at p = %d, [%d, %d): x = %d outside the range written", f.name, m.Value, lo, hi, x)
			}
		}
	}
}

// TestRowsVectorMatchGo pins every dispatched row primitive to its Go
// loop (the square to the old he_square loop) on ranges whose ends sit 0…7 off a multiple of eight, moduli
// from 2 to 60 bits (some far from a power of two, whose ratio words
// do not hide a dropped carry), and operands at the top of the range,
// where every product and sum is the largest there is.
func TestRowsVectorMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, p := range []uint64{2, 3, 1<<30 - 35, 1<<42 - 11, 0x2b7e151628aed3, testPrime, 0xb4f3a1c2d5e6f79, 1<<MaxModulusBits - 1} {
		m := NewModulus(p)
		for _, top := range []bool{false, true} {
			const n = 88
			for _, f := range rowPrims {
				init, ins := randomTerms(rng, p, f.outs, n, top), randomTerms(rng, p, f.ins, n, top)
				for off := 0; off < 8; off++ {
					checkRow(t, f, m, init, ins, off, n-off)
					checkRow(t, f, m, init, ins, 8, 8+off)
					checkRow(t, f, m, init, ins, off, 24)
				}
			}
		}
	}
}

// TestRowVectorPrefix pins what the vector bodies take: the whole
// multiple-of-8 prefix with AVX-512, nothing without. A body that took
// less would still give the right words (the Go loop finishes the row),
// so only this shows it.
func TestRowVectorPrefix(t *testing.T) {
	m := NewModulus(testPrime)
	w := NewMulModOperand(12345, m)
	for n := 0; n <= 40; n++ {
		r := randomTerms(rand.New(rand.NewSource(int64(n))), m.Value, 7, n, false)
		want := 0
		if HasAVX512() {
			want = n &^ 7
		}
		for name, got := range map[string]int{
			"AddRow":        m.addRowVector(r[0], r[1], r[2]),
			"MulAddRow":     m.mulAddRowVector(r[0], r[1], r[2], nil),
			"MulAddRow/add": m.mulAddRowVector(r[0], r[1], r[2], r[3]),
			"TensorRow":     m.tensorRowVector(r[0], r[1], r[2], r[3], r[4], r[5], r[6]),
			"ReduceRow":     m.reduceRowVector(r[0], r[1]),
			"SubMulRow":     w.subMulRowVector(r[0], r[1], nil, m.Value),
		} {
			if got != want {
				t.Errorf("%s at n = %d: the vector body took %d words, want %d", name, n, got, want)
			}
		}
	}
}

// The layer benchmarks run the key switch's shape: one inner product
// is keySwitchTerms digits of an N = 32768 row under each of
// keySwitchModuli moduli (L = 8: nine chain moduli and the special
// prime), 71 MB of rows, and the digit extension reduces as many rows
// into as many more, so the working set is beyond the caches as it is
// in the evaluator. Each reports MB/s over the words read and written,
// for the dispatched path and for the Go loop.
const (
	keySwitchN      = 1 << 15
	keySwitchTerms  = 9
	keySwitchModuli = 10
)

func BenchmarkInnerProductPair(b *testing.B) {
	m := NewModulus(testPrime)
	rng := rand.New(rand.NewSource(3))
	type set struct{ d, b, a [][]uint64 }
	sets := make([]set, keySwitchModuli)
	for i := range sets {
		sets[i] = set{
			randomTerms(rng, m.Value, keySwitchTerms, keySwitchN, false),
			randomTerms(rng, m.Value, keySwitchTerms, keySwitchN, false),
			randomTerms(rng, m.Value, keySwitchTerms, keySwitchN, false),
		}
	}
	out0, out1 := make([]uint64, keySwitchN), make([]uint64, keySwitchN)
	for _, path := range []struct {
		name string
		run  func(out0, out1 []uint64, d, b, a [][]uint64, lo, hi int)
	}{{"dispatched", m.InnerProductPair}, {"go", m.innerProductPairGo}} {
		b.Run(path.name, func(b *testing.B) {
			b.SetBytes(int64(keySwitchModuli * (3*keySwitchTerms + 2) * keySwitchN * 8))
			for b.Loop() {
				for _, s := range sets {
					path.run(out0, out1, s.d, s.b, s.a, 0, keySwitchN)
				}
			}
		})
	}
}

func BenchmarkReduceRow(b *testing.B) {
	m := NewModulus(1<<54 - 33)
	rng := rand.New(rand.NewSource(4))
	src := randomTerms(rng, testPrime, keySwitchModuli*keySwitchTerms, keySwitchN, false)
	dst := randomTerms(rng, m.Value, len(src), keySwitchN, false)
	for _, path := range []struct {
		name string
		run  func(dst, src []uint64)
	}{{"dispatched", m.ReduceRow}, {"go", func(dst, src []uint64) {
		for x, v := range src {
			dst[x] = m.BarrettReduce(v)
		}
	}}} {
		b.Run(path.name, func(b *testing.B) {
			b.SetBytes(int64(len(src) * 2 * keySwitchN * 8))
			for b.Loop() {
				for i, row := range src {
					path.run(dst[i], row)
				}
			}
		})
	}
}

// The elementwise benchmarks run serve_stream's shape: N = 4096 rows
// at five chain moduli for a batch of eight jobs, 40 rows of each
// operand (the tensor's seven come to 9 MB, past the L2 as in the
// evaluator). Each reports MB/s over the words read and written, for
// the dispatched path and for the Go loop.
const (
	streamN    = 1 << 12
	streamRows = 8 * 5
)

// benchRows times one row primitive over streamRows rows of each of
// its operands; words is how many words per coefficient it reads and
// writes.
func benchRows(b *testing.B, seed int64, operands, words int, run func(x int, r [][][]uint64)) {
	rng := rand.New(rand.NewSource(seed))
	r := make([][][]uint64, operands)
	for i := range r {
		r[i] = randomTerms(rng, testPrime, streamRows, streamN, false)
	}
	b.SetBytes(int64(streamRows * words * streamN * 8))
	for b.Loop() {
		for x := range streamRows {
			run(x, r)
		}
	}
}

func BenchmarkTensorRow(b *testing.B) {
	m := NewModulus(testPrime)
	for _, path := range []struct {
		name string
		run  func(d0, d1, d2, a0, a1, b0, b1 []uint64)
	}{{"dispatched", m.TensorRow}, {"go", m.tensorRowGo}} {
		b.Run(path.name, func(b *testing.B) {
			benchRows(b, 7, 7, 7, func(x int, r [][][]uint64) {
				path.run(r[0][x], r[1][x], r[2][x], r[3][x], r[4][x], r[5][x], r[6][x])
			})
		})
	}
}

// BenchmarkMulAddRow runs the multiply-add kernel's shape: dst += a ⊙ b.
func BenchmarkMulAddRow(b *testing.B) {
	m := NewModulus(testPrime)
	for _, path := range []struct {
		name string
		run  func(dst, a, b, add []uint64)
	}{{"dispatched", m.MulAddRow}, {"go", m.mulAddRowGo}} {
		b.Run(path.name, func(b *testing.B) {
			benchRows(b, 8, 3, 4, func(x int, r [][][]uint64) {
				path.run(r[0][x], r[1][x], r[2][x], r[0][x])
			})
		})
	}
}

// BenchmarkSubMulRow runs the rescale's shape: no addend.
func BenchmarkSubMulRow(b *testing.B) {
	m := NewModulus(testPrime)
	w := NewMulModOperand(0x123456789abcdef, m)
	for _, path := range []struct {
		name string
		run  func(dst, a []uint64)
	}{{"dispatched", func(dst, a []uint64) { w.SubMulRow(dst, a, nil, m.Value) }}, {"go", func(dst, a []uint64) {
		for x := range dst {
			dst[x] = w.MulMod(SubMod(a[x], dst[x], m.Value), m.Value)
		}
	}}} {
		b.Run(path.name, func(b *testing.B) {
			benchRows(b, 9, 2, 3, func(x int, r [][][]uint64) {
				path.run(r[0][x], r[1][x])
			})
		})
	}
}
