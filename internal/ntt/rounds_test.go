package ntt

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"xehe/internal/gpu"
	"xehe/internal/xmath"
)

// roundWindows lists the views a round of the given span (2T forward,
// r*t inverse) is applied to inside a transform of n points: the whole
// row (global rounds) and, where a span fits, every SLM group — so the
// groups past the first exercise blockBase/spanBase != 0.
func roundWindows(n, span int) [][2]int {
	ws := [][2]int{{0, n}}
	if n > slmGroupElems && span <= slmGroupElems {
		for g0 := 0; g0 < n; g0 += slmGroupElems {
			ws = append(ws, [2]int{g0, g0 + slmGroupElems})
		}
	}
	return ws
}

// roundTables returns tables of n points under a prime of the given
// class. Up to xmath's 60-bit limit they are NewTables'; above it (the
// rounds' lazy ranges hold while 4p fits a word, so up to 62 bits) the
// prime is searched here and the twiddles are random operands with
// their Harvey quotients: a round's arithmetic is exact for any W < p,
// so the vector and Go rounds must still agree.
func roundTables(rng *rand.Rand, n int, class primeClass) *Tables {
	if class.bits <= xmath.MaxModulusBits {
		ps := class.primes(1+rng.Intn(3), n)
		return NewTables(n, xmath.NewModulus(ps[len(ps)-1]))
	}
	step := uint64(2 * n)
	p := (uint64(1)<<class.bits-1)/step*step + 1
	p -= step * uint64(rng.Intn(1<<10))
	for !xmath.IsPrime(p) {
		p -= step
	}
	operand := func(w uint64) xmath.MulModOperand {
		q, _ := bits.Div64(w, 0, p)
		return xmath.MulModOperand{Operand: w, Quotient: q}
	}
	random := func() xmath.MulModOperand { return operand(rng.Uint64() % p) }
	t := &Tables{N: n, LogN: countStages(n), Modulus: xmath.Modulus{Value: p}, NInv: random()}
	t.Roots = make([]xmath.MulModOperand, n)
	t.InvRoots = make([]xmath.MulModOperand, n)
	for i := range t.Roots {
		t.Roots[i], t.InvRoots[i] = random(), random()
	}
	hi, lo := bits.Mul64(t.InvRoots[1].Operand, t.NInv.Operand)
	_, w := bits.Div64(hi, lo, p)
	t.nInvRoot = operand(w)
	return t
}

// lazyInputs returns n values below bound, with the extremes planted.
func lazyInputs(rng *rand.Rand, n int, bound uint64) []uint64 {
	x := make([]uint64, n)
	for i := range x {
		x[i] = rng.Uint64() % bound
	}
	x[0], x[1], x[n-1] = bound-1, 0, bound-1
	return x
}

// withoutIFMA runs f as the rounds dispatch on this host and, on an
// IFMA host, once more with the IFMA kernels switched off, so that the
// 64-bit kernels take the moduli below wideBound — and the 52-bit
// tables of those below ifmaBound — too.
func withoutIFMA(f func(ifma bool)) {
	f(ifmaRounds)
	if ifmaRounds {
		ifmaRounds = false
		defer func() { ifmaRounds = true }()
		f(false)
	}
}

// wantKernels is the family that must take a round under p whose lanes
// suit the vector kernels: the rule restated, not read from
// roundKernels, so that a moved bound fails.
func wantKernels(p uint64) kernels {
	switch {
	case !vectorRounds:
		return goLoops
	case ifmaRounds && p < 1<<50:
		return ifmaKernels
	case ifmaRounds && p < 1<<52:
		return ifmaWideKernels
	}
	return avx512Kernels
}

var kernelNames = [...]string{goLoops: "Go", avx512Kernels: "AVX512", ifmaKernels: "IFMA", ifmaWideKernels: "IFMAWide"}

// sameRound reports whether a vector round's output element got
// matches the Go round's want: bit for bit, except from the IFMA-wide
// kernels, whose products reduce their input first and so may differ
// from the Go round's lazy values by p — they must be congruent. Both
// must lie in [0, bound).
func sameRound(took kernels, got, want, p, bound uint64) bool {
	if got >= bound {
		return false
	}
	if took == ifmaWideKernels {
		return got%p == want%p
	}
	return got == want
}

// roundClasses are the primes the round tests run under: both sides of
// every family's bound — just below 2^50 (IFMA), just above it, 51-bit
// and just below 2^52 (IFMA-wide), and 60 and 61 bits (64-bit) — with
// small ones for the 64-bit kernels' sake.
var roundClasses = []primeClass{{bits: 30}, {bits: 42}, {bits: 50}, {bits: 51, low: true}, {bits: 51}, {bits: 52}, {bits: 60}, {bits: 61}}

// TestRadix8RoundsMatchGeneric runs the radix-8 rounds at every entry
// stage of an 8192-point transform, over the whole row and over each
// SLM group, under roundClasses — both sides of every kernel family's
// bound: the vector kernels (where the CPU has them), the Go rounds and
// the generic loop must agree (sameRound). Inputs span the full lazy
// range, and the outputs must stay inside it: forward [0, 4p), inverse
// [0, 2p). The transform's last rounds — forward T = 4, inverse m = 8 —
// fuse the last-round processing, so there the vector kernels must
// equal the Go round followed by it, in [0, p), bit for bit. On an
// AVX-512 machine the vector kernels must take every round whose lanes
// are a multiple of eight or one long: the IFMA family below 2^50 and
// the IFMA-wide family below 2^52 where the CPU has IFMA, the 64-bit
// family otherwise. With IFMA, everything runs a second time with the
// IFMA kernels off.
func TestRadix8RoundsMatchGeneric(t *testing.T) {
	withoutIFMA(func(ifma bool) { testRadix8RoundsMatchGeneric(t, ifma) })
}

func testRadix8RoundsMatchGeneric(t *testing.T, ifma bool) {
	const n, logN, w = 8192, 13, 3
	for ci, class := range roundClasses {
		rng := rand.New(rand.NewSource(int64(ci)))
		tbl := roundTables(rng, n, class)
		p := tbl.Modulus.Value
		// run applies one round three ways to copies of in: the generic
		// loop and the Go round must agree bit for bit and stay in the
		// lazy range; then finish, if any, is applied to the generic
		// loop's values, which the vector kernel must match.
		run := func(name string, in []uint64, bound uint64, lane int, vec func([]uint64) kernels, goRound, generic, finish func([]uint64)) {
			t.Helper()
			want := append([]uint64(nil), in...)
			generic(want)
			got := append([]uint64(nil), in...)
			goRound(got)
			for i := range want {
				if !sameRound(goLoops, got[i], want[i], p, bound) {
					t.Fatalf("%v %s (IFMA %v): Go round element %d = %d, generic loop gives %d (bound %d)", class, name, ifma, i, got[i], want[i], bound)
				}
			}
			if finish != nil {
				finish(want)
				bound = p
			}
			copy(got, in)
			took, wantTook := vec(got), goLoops
			if lane%8 == 0 || lane == 1 {
				wantTook = wantKernels(p)
			}
			if took != wantTook {
				t.Fatalf("%v %s (IFMA %v): lanes of %d taken by %s kernels, want %s", class, name, ifma, lane, kernelNames[took], kernelNames[wantTook])
			}
			if took == goLoops {
				return
			}
			for i := range want {
				if !sameRound(took, got[i], want[i], p, bound) {
					t.Fatalf("%v %s (IFMA %v): %s element %d = %d, generic loop gives %d (bound %d)", class, name, ifma, kernelNames[took], i, got[i], want[i], bound)
				}
			}
		}
		for s := 0; s+w <= logN; s++ {
			m, T := 1<<s, n>>(s+1)
			var finish func([]uint64)
			if T == 4 {
				finish = func(x []uint64) { finalizeForward(x, p) }
			}
			for _, win := range roundWindows(n, 2*T) {
				base := win[0] / (2 * T)
				first := m + base
				in := lazyInputs(rng, n, 4*p)[win[0]:win[1]]
				run(fmt.Sprintf("forward m=%d T=%d blockBase=%d", m, T, base), in, 4*p, T/4,
					func(x []uint64) kernels { return fwdRound8Vector(x, tbl, first, T) },
					func(x []uint64) { fwdRound8Go(x, tbl.Roots, p, first, T) },
					func(x []uint64) { genericRadixRound(x, tbl, m, T, w, base) }, finish)
			}
		}
		for s := logN; s-w >= 0; s-- {
			m, tt := 1<<s, n>>s
			span := tt << w
			var finish func([]uint64)
			if s == w {
				finish = func(x []uint64) { finalizeInverse(x, tbl) }
			}
			for _, win := range roundWindows(n, span) {
				base := win[0] / span
				first := m>>w + base
				in := lazyInputs(rng, n, 2*p)[win[0]:win[1]]
				run(fmt.Sprintf("inverse m=%d t=%d spanBase=%d", m, tt, base), in, 2*p, tt,
					func(x []uint64) kernels { return invRound8Vector(x, tbl, first, tt) },
					func(x []uint64) { invRound8Go(x, tbl.InvRoots, p, first, tt) },
					func(x []uint64) { genericInvRadixRound(x, tbl, m, tt, w, base) }, finish)
			}
		}
	}
}

// TestFusedLastRoundsMatchFinalize: the rounds that fuse the
// last-round processing — the last forward round (T = 4) and the last
// inverse round (m = 8), dispatched as the transforms run them, at
// lengths with and without a vector kernel — give the Go round
// followed by the scalar finalize pass, bit for bit. With the IFMA
// kernels on and off, in every family's class.
func TestFusedLastRoundsMatchFinalize(t *testing.T) {
	withoutIFMA(func(bool) { testFusedLastRoundsMatchFinalize(t) })
}

func testFusedLastRoundsMatchFinalize(t *testing.T) {
	for ci, class := range roundClasses {
		rng := rand.New(rand.NewSource(int64(ci)))
		check := func(name string, n int, got, want []uint64) {
			t.Helper()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v %s len %d: element %d = %d, want %d", class, name, n, i, got[i], want[i])
				}
			}
		}
		for _, n := range []int{8, 16, 64, 4096} {
			rt := roundTables(rng, n, class)
			p := rt.Modulus.Value
			x := lazyInputs(rng, n, 4*p)
			got := append([]uint64(nil), x...)
			fwdRound8(got, rt, n/8, 4)
			fwdRound8Go(x, rt.Roots, p, n/8, 4)
			finalizeForward(x, p)
			check("last forward round", n, got, x)
			x = lazyInputs(rng, n, 2*p)
			got = append(got[:0], x...)
			invRound8(got, rt, 1, n/8)
			invRound8Go(x, rt.InvRoots, p, 1, n/8)
			finalizeInverse(x, rt)
			check("last inverse round", n, got, x)
		}
	}
}

// FuzzRound8 runs one radix-8 round, forward or inverse, at a fuzzed
// entry stage over a fuzzed run of blocks of a 1024-point transform,
// under a random NTT prime of up to 62 bits and random lazy inputs:
// the dispatched round (AVX-512 where the CPU has it, IFMA below 2^52
// where it has that) must agree with the Go round (sameRound) — and
// the transform's last rounds, which fuse the last-round processing,
// with the Go round followed by it, bit for bit, in [0, p) — and so
// must the 64-bit kernels with IFMA switched off. Dropping the vector
// butterfly's x ≥ 2p correction (its first VPMINUQ) fails here at once.
func FuzzRound8(f *testing.F) {
	f.Add(int64(1), uint8(50), uint8(0), uint16(0), false)
	f.Add(int64(2), uint8(62), uint8(7), uint16(3), false)
	f.Add(int64(3), uint8(61), uint8(10), uint16(5), true)
	f.Add(int64(4), uint8(30), uint8(4), uint16(0), true)
	f.Add(int64(5), uint8(31), uint8(0), uint16(0), false)
	f.Add(int64(6), uint8(31), uint8(7), uint16(2), false)
	f.Add(int64(7), uint8(32), uint8(10), uint16(0), true)
	f.Add(int64(8), uint8(32), uint8(3), uint16(1), true)
	f.Fuzz(func(t *testing.T, seed int64, size, stage uint8, startBlock uint16, inverse bool) {
		const n, logN, w = 1024, 10, 3
		rng := rand.New(rand.NewSource(seed))
		tbl := roundTables(rng, n, primeClass{bits: 20 + int(size)%43})
		p := tbl.Modulus.Value
		bound, span, s := 4*p, 0, 0
		if inverse {
			s = w + int(stage)%(logN-w+1)
			bound, span = 2*p, n>>s<<w
		} else {
			s = int(stage) % (logN - w + 1)
			span = n >> s
		}
		blocks := n / span
		b0 := int(startBlock) % blocks
		if c := blocks - b0; c >= 8 {
			blocks = b0 + c&^7
		}
		x := lazyInputs(rng, n, bound)
		want := append([]uint64(nil), x[b0*span:blocks*span]...)
		if inverse {
			invRound8Go(want, tbl.InvRoots, p, 1<<s>>w+b0, n>>s)
			if s == w {
				finalizeInverse(want, tbl)
				bound = p
			}
		} else {
			fwdRound8Go(want, tbl.Roots, p, 1<<s+b0, n>>(s+1))
			if s == logN-w {
				finalizeForward(want, p)
				bound = p
			}
		}
		withoutIFMA(func(ifma bool) {
			got := append([]uint64(nil), x[b0*span:blocks*span]...)
			if inverse {
				invRound8(got, tbl, 1<<s>>w+b0, n>>s)
			} else {
				fwdRound8(got, tbl, 1<<s+b0, n>>(s+1))
			}
			for i := range want {
				if !sameRound(wantKernels(p), got[i], want[i], p, bound) {
					t.Fatalf("%d-bit p=%d stage %d inverse=%v IFMA=%v blocks [%d,%d): element %d = %d, Go round gives %d (bound %d)",
						bits.Len64(p), p, s, inverse, ifma, b0, blocks, i, got[i], want[i], bound)
				}
			}
		})
	})
}

// TestEngineRadix8TailRoundsMatchReference: sizes whose stage counts
// are not multiples of three make LocalRadix8 finish with a radix-4
// round (N=2048: 3+3+3+2) or open with a radix-2 global round (N=8192:
// 1 then 3+3+3+3 in two SLM groups), so radix-8 and generic rounds mix
// in one transform; both directions must still be bit-identical to
// the radix-2 oracle (ref_test.go).
func TestEngineRadix8TailRoundsMatchReference(t *testing.T) {
	eachModulusClass(t, testEngineRadix8TailRoundsMatchReference)
}

func testEngineRadix8TailRoundsMatchReference(t *testing.T, class primeClass) {
	const qCount, polys = 2, 2
	for _, n := range []int{2048, 8192} {
		for _, forward := range []bool{true, false} {
			data, tbls := testSetup(t, n, qCount, polys, class, int64(n))
			want := append([]uint64(nil), data...)
			e := NewEngine(LocalRadix8)
			qs := queues1(gpu.NewDevice1())
			for p := 0; p < polys; p++ {
				for q := 0; q < qCount; q++ {
					if forward {
						refForward(sliceOf(want, p, q, qCount, n), tbls[q])
					} else {
						refInverse(sliceOf(want, p, q, qCount, n), tbls[q])
					}
				}
			}
			if forward {
				e.Forward(qs, data, polys, tbls)
			} else {
				e.Inverse(qs, data, polys, tbls)
			}
			for i := range data {
				if data[i] != want[i] {
					t.Fatalf("n=%d forward=%v: mismatch at %d: %d != %d", n, forward, i, data[i], want[i])
				}
			}
		}
	}
}
