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

// withoutIFMA runs f as the rows dispatch on this host and, on an IFMA
// host, once more with the IFMA bodies switched off, so that the
// 64-bit bodies take the moduli newBarrett52 admits too.
func withoutIFMA(f func(ifma bool)) {
	f(ifmaRows)
	if ifmaRows {
		ifmaRows = false
		defer func() { ifmaRows = true }()
		f(false)
	}
}

// rowModuli are the moduli the row tests run under, in both classes:
// the IFMA bodies' (where the CPU has them) from 2^12 to 2^50 — 30, 40,
// 42 and 50 bits, one just above a power of two, where the 52-bit ratio
// is at its largest — and the 64-bit bodies' at 52, 54 and 60 bits,
// some far from a power of two, whose ratio words do not hide a dropped
// carry. Between them sit the edges of newBarrett52's rule: 2 and 3, a
// modulus just below 2^12 and one just above, the power of two 2^42,
// and 2^50 itself.
var rowModuli = []uint64{
	2, 3, 1<<12 - 3, 1<<12 + 1, 1<<30 - 35, 1<<40 - 87, 1<<42 - 11, 1 << 42, 1<<49 + 1, 1<<50 - 27,
	1 << 50, 1<<52 - 47, 1<<54 - 33, 0x2b7e151628aed3, testPrime, 0xb4f3a1c2d5e6f79, 1<<MaxModulusBits - 1,
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
// to the Go loop around the vector bodies' edges: term counts on both
// sides of their bound (vectorTerms; longer chains go to the Go loop),
// ranges whose ends sit 0…7 off a multiple of eight, rowModuli in both
// classes with the IFMA body on and off, and operands at the top of the
// range (randomTerms) — the largest partial sums, the most carries in
// the 128-bit combine, the largest high sum the IFMA body folds back,
// and the sums whose reduction needs every carry of the quotient
// estimate.
func TestInnerProductPairVectorMatchesGo(t *testing.T) {
	withoutIFMA(func(bool) {
		rng := rand.New(rand.NewSource(1))
		for _, p := range rowModuli {
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
	})
}

// TestReduceRowMatchesBarrettReduce pins ReduceRow to BarrettReduce on
// arbitrary 64-bit inputs, 2^64−1 included, at every length 0…24 (the
// vector prefix and the Go tail) and on a dst longer than src, under
// rowModuli with the IFMA body on and off. 2^64−1 under 2^12 + 1 is the
// widest word the IFMA body's c1 = V >> s takes: 2^52 − 1.
func TestReduceRowMatchesBarrettReduce(t *testing.T) {
	withoutIFMA(func(bool) {
		rng := rand.New(rand.NewSource(2))
		for _, p := range rowModuli {
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
	})
}

// TestSubMulRowMatchesScalar pins SubMulRow to its definition, the
// SubMod, MulMod, AddMod chain per coefficient, with and without an
// addend, at every length 0…24, under rowModuli with the IFMA body on
// and off, and by operands of both forms (NewMulModOperand, which the
// rescale and the mod-down use, and NewMulModOperand52): the IFMA body
// reads the 52-bit quotient of either.
func TestSubMulRowMatchesScalar(t *testing.T) {
	withoutIFMA(func(bool) {
		rng := rand.New(rand.NewSource(5))
		for _, p := range rowModuli {
			m := NewModulus(p)
			w := rng.Uint64()
			for _, op := range []MulModOperand{NewMulModOperand(w, m), NewMulModOperand52(w, m)} {
				for n := 0; n <= 24; n++ {
					rows := randomTerms(rng, p, 3, n, false)
					for _, add := range [][]uint64{nil, rows[2]} {
						dst := append(make([]uint64, 0, n+1), rows[0]...)
						op.SubMulRow(dst, rows[1], add, p)
						for x := range dst {
							want := op.MulMod(SubMod(rows[1][x], rows[0][x], p), p)
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
	})
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
// loop (the square to the old he_square loop) on ranges whose ends sit
// 0…7 off a multiple of eight, rowModuli in both classes with the IFMA
// bodies on and off, and operands at the top of the range, where every
// product and sum is the largest there is.
func TestRowsVectorMatchGo(t *testing.T) {
	withoutIFMA(func(bool) {
		rng := rand.New(rand.NewSource(6))
		for _, p := range rowModuli {
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
	})
}

// wantKernels is the family that must take a row under p: the rule
// restated, not read from rowKernels or newBarrett52, so that a moved
// bound fails.
func wantKernels(p uint64) kernels {
	switch {
	case !HasAVX512():
		return goLoops
	case ifmaRows && p >= 1<<12 && p < 1<<50 && p&(p-1) != 0:
		return ifmaKernels
	}
	return avx512Kernels
}

var kernelNames = [...]string{goLoops: "Go", avx512Kernels: "AVX-512", ifmaKernels: "IFMA"}

// TestRowVectorPrefix pins what the vector bodies take and which family
// takes it: the whole multiple-of-8 prefix (of 16 for the inner
// product) with AVX-512, on the IFMA bodies exactly where wantKernels
// says, nothing without. A body that took less, or the other family,
// would still give the right words (the Go loop finishes the row, and
// both families give the canonical residue), so only this shows it.
// The add has no product and one body for both classes.
func TestRowVectorPrefix(t *testing.T) {
	withoutIFMA(func(ifma bool) {
		for _, p := range []uint64{1<<12 - 3, 1<<12 + 1, 1<<42 - 11, 1 << 42, 1<<50 - 27, 1 << 50, 1<<54 - 33, testPrime} {
			m := NewModulus(p)
			w := NewMulModOperand(12345, m)
			type took struct {
				n int
				k kernels
			}
			pair := func(n int, k kernels) took { return took{n, k} }
			for n := 0; n <= 40; n++ {
				r := randomTerms(rand.New(rand.NewSource(int64(n))), p, 7, n, false)
				want, add, ip := took{0, goLoops}, took{0, goLoops}, took{0, goLoops}
				if HasAVX512() {
					want, add = took{n &^ 7, wantKernels(p)}, took{n &^ 7, avx512Kernels}
					if n >= 16 {
						ip = took{n &^ 15, wantKernels(p)}
					}
				}
				for name, c := range map[string]struct{ got, want took }{
					"AddRow":           {pair(m.addRowVector(r[0], r[1], r[2])), add},
					"MulAddRow":        {pair(m.mulAddRowVector(r[0], r[1], r[2], nil)), want},
					"MulAddRow/add":    {pair(m.mulAddRowVector(r[0], r[1], r[2], r[3])), want},
					"TensorRow":        {pair(m.tensorRowVector(r[0], r[1], r[2], r[3], r[4], r[5], r[6])), want},
					"ReduceRow":        {pair(m.reduceRowVector(r[0], r[1])), want},
					"SubMulRow":        {pair(w.subMulRowVector(r[0], r[1], nil, p)), want},
					"InnerProductPair": {pair(m.innerProductPairVector(r[0], r[1], r[2:4], r[4:6], r[5:7], 0, n)), ip},
				} {
					if c.got != c.want {
						t.Errorf("%s at p = %d, n = %d (IFMA %v): %d words taken by %s, want %d by %s",
							name, p, n, ifma, c.got.n, kernelNames[c.got.k], c.want.n, kernelNames[c.want.k])
					}
				}
			}
		}
	})
}

// The row benchmarks run each row under both modulus classes — 50
// bits, which the IFMA bodies take where the CPU has them, and 54,
// which the 64-bit bodies take — as sub-benchmarks <class>/<family>
// (kernelNames): the family this host dispatches to, the 64-bit one
// too, with the IFMA bodies off, where that is IFMA, and the Go loop.
// Each reports MB/s over the words read and written.
var benchClasses = []struct {
	name string
	p    uint64
}{{"50bit", 1<<50 - 27}, {"54bit", 1<<54 - 33}}

// benchFamilies runs bench under each class and family; vector is false
// for the Go loop.
func benchFamilies(b *testing.B, bench func(b *testing.B, m Modulus, vector bool)) {
	for _, c := range benchClasses {
		m := NewModulus(c.p)
		k := wantKernels(c.p)
		if k != goLoops {
			b.Run(c.name+"/"+kernelNames[k], func(b *testing.B) { bench(b, m, true) })
		}
		if k == ifmaKernels {
			b.Run(c.name+"/"+kernelNames[avx512Kernels], func(b *testing.B) {
				ifmaRows = false
				defer func() { ifmaRows = true }()
				bench(b, m, true)
			})
		}
		b.Run(c.name+"/"+kernelNames[goLoops], func(b *testing.B) { bench(b, m, false) })
	}
}

// The key switch's shape: one inner product is keySwitchTerms digits
// of an N = 32768 row under each of keySwitchModuli moduli (L = 8: nine
// chain moduli and the special prime), 71 MB of rows, and the digit
// extension reduces as many rows into as many more, so the working set
// is beyond the caches as it is in the evaluator.
const (
	keySwitchN      = 1 << 15
	keySwitchTerms  = 9
	keySwitchModuli = 10
)

// serve_stream's shape: N = 4096 rows at five moduli (four chain
// moduli and the special prime) for a batch of eight jobs. The inner
// product sums four digits, and a modulus's key rows are shared by the
// eight jobs, so they stay in cache while the digits stream past.
const (
	streamN      = 1 << 12
	streamJobs   = 8
	streamModuli = 5
	streamTerms  = 4
	streamRows   = streamJobs * streamModuli
)

// BenchmarkInnerProductPair runs the key switch's inner product at both
// shapes: n32768x9 is bound by memory, n4096x4 by the arithmetic.
func BenchmarkInnerProductPair(b *testing.B) {
	for _, shape := range []struct {
		name                string
		n, terms, keys, per int // per: the calls that share one set of key rows
	}{{"n32768x9", keySwitchN, keySwitchTerms, keySwitchModuli, 1}, {"n4096x4", streamN, streamTerms, streamModuli, streamJobs}} {
		b.Run(shape.name, func(b *testing.B) {
			benchFamilies(b, func(b *testing.B, m Modulus, vector bool) {
				rng := rand.New(rand.NewSource(3))
				type set struct{ b, a [][]uint64 }
				keys := make([]set, shape.keys)
				for i := range keys {
					keys[i] = set{randomTerms(rng, m.Value, shape.terms, shape.n, false), randomTerms(rng, m.Value, shape.terms, shape.n, false)}
				}
				digits := make([][][]uint64, shape.keys*shape.per)
				for i := range digits {
					digits[i] = randomTerms(rng, m.Value, shape.terms, shape.n, false)
				}
				run := m.InnerProductPair
				if !vector {
					run = m.innerProductPairGo
				}
				out0, out1 := make([]uint64, shape.n), make([]uint64, shape.n)
				b.SetBytes(int64(len(digits) * (3*shape.terms + 2) * shape.n * 8))
				for b.Loop() {
					for i, d := range digits {
						k := keys[i%shape.keys]
						run(out0, out1, d, k.b, k.a, 0, shape.n)
					}
				}
			})
		})
	}
}

// BenchmarkReduceRow runs the digit extension, rows of words under a
// 60-bit modulus reduced into the class's, at both shapes: the key
// switch's rows (n32768x90) are bound by memory, serve_stream's
// (n4096x40) by the arithmetic.
func BenchmarkReduceRow(b *testing.B) {
	for _, shape := range []struct {
		name    string
		n, rows int
	}{{"n32768x90", keySwitchN, keySwitchModuli * keySwitchTerms}, {"n4096x40", streamN, streamRows}} {
		b.Run(shape.name, func(b *testing.B) {
			benchFamilies(b, func(b *testing.B, m Modulus, vector bool) {
				rng := rand.New(rand.NewSource(4))
				src := randomTerms(rng, testPrime, shape.rows, shape.n, false)
				dst := randomTerms(rng, m.Value, len(src), shape.n, false)
				run := m.ReduceRow
				if !vector {
					run = func(dst, src []uint64) {
						for x, v := range src {
							dst[x] = m.BarrettReduce(v)
						}
					}
				}
				b.SetBytes(int64(len(src) * 2 * shape.n * 8))
				for b.Loop() {
					for i, row := range src {
						run(dst[i], row)
					}
				}
			})
		})
	}
}

// benchRows times one row primitive at serve_stream's shape,
// streamRows rows of each of its operands (the tensor's seven come to
// 9 MB, past the L2 as in the evaluator); words is how many words per
// coefficient it reads and writes.
func benchRows(b *testing.B, m Modulus, seed int64, operands, words int, run func(x int, r [][][]uint64)) {
	rng := rand.New(rand.NewSource(seed))
	r := make([][][]uint64, operands)
	for i := range r {
		r[i] = randomTerms(rng, m.Value, streamRows, streamN, false)
	}
	b.SetBytes(int64(streamRows * words * streamN * 8))
	for b.Loop() {
		for x := range streamRows {
			run(x, r)
		}
	}
}

func BenchmarkTensorRow(b *testing.B) {
	benchFamilies(b, func(b *testing.B, m Modulus, vector bool) {
		run := m.TensorRow
		if !vector {
			run = m.tensorRowGo
		}
		benchRows(b, m, 7, 7, 7, func(x int, r [][][]uint64) {
			run(r[0][x], r[1][x], r[2][x], r[3][x], r[4][x], r[5][x], r[6][x])
		})
	})
}

// BenchmarkMulAddRow runs the multiply-add kernel's shape: dst += a ⊙ b.
func BenchmarkMulAddRow(b *testing.B) {
	benchFamilies(b, func(b *testing.B, m Modulus, vector bool) {
		run := m.MulAddRow
		if !vector {
			run = m.mulAddRowGo
		}
		benchRows(b, m, 8, 3, 4, func(x int, r [][][]uint64) {
			run(r[0][x], r[1][x], r[2][x], r[0][x])
		})
	})
}

// BenchmarkSubMulRow runs the rescale's shape: no addend.
func BenchmarkSubMulRow(b *testing.B) {
	benchFamilies(b, func(b *testing.B, m Modulus, vector bool) {
		w, p := NewMulModOperand(0x123456789abcdef, m), m.Value
		run := func(dst, a []uint64) { w.SubMulRow(dst, a, nil, p) }
		if !vector {
			run = func(dst, a []uint64) {
				for x := range dst {
					dst[x] = w.MulMod(SubMod(a[x], dst[x], p), p)
				}
			}
		}
		benchRows(b, m, 9, 2, 3, func(x int, r [][][]uint64) {
			run(r[0][x], r[1][x])
		})
	})
}
