package ntt

import (
	"fmt"
	"math/rand"
	"testing"

	"xehe/internal/gpu"
	"xehe/internal/isa"
	"xehe/internal/sycl"
	"xehe/internal/xmath"
)

// AllVariants lists every implemented variant in the order the paper
// introduces them.
func AllVariants() []Variant {
	return []Variant{NaiveRadix2, SIMD8x8, SIMD16x8, SIMD32x8, LocalRadix4, LocalRadix8, LocalRadix16}
}

// testSetup builds a batch of random polynomials plus tables under
// primes of the given class.
func testSetup(t testing.TB, n, qCount, polys int, class primeClass, seed int64) ([]uint64, []*Tables) {
	t.Helper()
	primes := class.primes(qCount, n)
	tbls := make([]*Tables, qCount)
	for i, p := range primes {
		tbls[i] = NewTables(n, xmath.NewModulus(p))
	}
	rng := rand.New(rand.NewSource(seed))
	data := make([]uint64, polys*qCount*n)
	for p := 0; p < polys; p++ {
		for q := 0; q < qCount; q++ {
			s := sliceOf(data, p, q, qCount, n)
			for i := range s {
				s[i] = rng.Uint64() % tbls[q].Modulus.Value
			}
		}
	}
	return data, tbls
}

// primeClass is a band of NTT primes the tests draw from: the largest
// primes below 2^bits or, with low set, the smallest above 2^(bits−1).
type primeClass struct {
	bits int
	low  bool
}

func (c primeClass) String() string {
	if c.low {
		return fmt.Sprintf("%dbit-low", c.bits)
	}
	return fmt.Sprintf("%dbit", c.bits)
}

// primes returns count distinct primes of the class that are 1 mod 2n.
func (c primeClass) primes(count, n int) []uint64 {
	if !c.low {
		return xmath.GeneratePrimes(c.bits, count, n)
	}
	var ps []uint64
	for p := uint64(1)<<(c.bits-1) + 1; len(ps) < count; p += uint64(2 * n) {
		if xmath.IsPrime(p) {
			ps = append(ps, p)
		}
	}
	return ps
}

// moduliClasses are the prime classes the whole-transform oracle tests
// run under, the edges of every kernel family: the 40- and 42-bit
// chain primes of the serving and routine parameters and the primes
// just below 2^50 (below ifmaBound, so the IFMA kernels where the CPU
// has them, with 4p close to 2^52 at the top); the primes just above
// 2^50, 51-bit ones and those just below 2^52 (the IFMA-wide kernels;
// ParamsDemo's special prime and ParamsBenchmark's q0 are 52-bit);
// and 54-bit primes (the 64-bit AVX-512 kernels).
var moduliClasses = []primeClass{{bits: 40}, {bits: 42}, {bits: 50}, {bits: 51, low: true}, {bits: 51}, {bits: 52}, {bits: 54}}

// eachModulusClass runs f once per class of moduliClasses, as a
// subtest, with the rounds as they dispatch on this host and, on an
// IFMA host, once more with the IFMA kernels off (withoutIFMA), so
// that the 64-bit kernels take every class.
func eachModulusClass(t *testing.T, f func(t *testing.T, class primeClass)) {
	withoutIFMA(func(ifma bool) {
		for _, class := range moduliClasses {
			t.Run(fmt.Sprintf("%v/ifma=%v", class, ifma), func(t *testing.T) { f(t, class) })
		}
	})
}

func queues1(dev *gpu.Device) []*sycl.Queue {
	return []*sycl.Queue{sycl.NewQueue(dev, isa.CompilerGenerated)}
}

func TestEngineForwardMatchesReferenceAllVariants(t *testing.T) {
	const n, qCount, polys = 4096, 3, 2
	for _, v := range AllVariants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			eachModulusClass(t, func(t *testing.T, class primeClass) {
				data, tbls := testSetup(t, n, qCount, polys, class, int64(v))
				want := append([]uint64(nil), data...)
				for p := 0; p < polys; p++ {
					for q := 0; q < qCount; q++ {
						refForward(sliceOf(want, p, q, qCount, n), tbls[q])
					}
				}
				dev := gpu.NewDevice1()
				NewEngine(v).Forward(queues1(dev), data, polys, tbls)
				for i := range data {
					if data[i] != want[i] {
						t.Fatalf("forward mismatch at %d: %d != %d", i, data[i], want[i])
					}
				}
			})
		})
	}
}

func TestEngineInverseMatchesReferenceAllVariants(t *testing.T) {
	const n, qCount, polys = 4096, 2, 2
	for _, v := range AllVariants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			eachModulusClass(t, func(t *testing.T, class primeClass) {
				data, tbls := testSetup(t, n, qCount, polys, class, 100+int64(v))
				want := append([]uint64(nil), data...)
				for p := 0; p < polys; p++ {
					for q := 0; q < qCount; q++ {
						refInverse(sliceOf(want, p, q, qCount, n), tbls[q])
					}
				}
				dev := gpu.NewDevice1()
				NewEngine(v).Inverse(queues1(dev), data, polys, tbls)
				for i := range data {
					if data[i] != want[i] {
						t.Fatalf("inverse mismatch at %d: %d != %d", i, data[i], want[i])
					}
				}
			})
		})
	}
}

func TestEngineRoundTripOddSizes(t *testing.T) {
	// Sizes whose stage counts are not multiples of the radix width
	// exercise the remainder-round scheduling.
	eachModulusClass(t, func(t *testing.T, class primeClass) {
		for _, n := range []int{8192, 16384} {
			for _, v := range []Variant{LocalRadix8, LocalRadix16, SIMD16x8} {
				data, tbls := testSetup(t, n, 1, 1, class, int64(n)+int64(v))
				orig := append([]uint64(nil), data...)
				dev := gpu.NewDevice1()
				e := NewEngine(v)
				e.Forward(queues1(dev), data, 1, tbls)
				e.Inverse(queues1(dev), data, 1, tbls)
				for i := range data {
					if data[i] != orig[i] {
						t.Fatalf("n=%d %s: round trip mismatch at %d", n, v, i)
					}
				}
			}
		}
	})
}

func TestEngineDualTileMatchesSingle(t *testing.T) {
	// Batch large enough that compute dominates launch overhead —
	// dual-tile submission only pays off at scale (Section IV-A.4).
	const n, qCount, polys = 4096, 4, 32
	data, tbls := testSetup(t, n, qCount, polys, primeClass{bits: 50}, 7)
	want := append([]uint64(nil), data...)
	dev := gpu.NewDevice1()
	NewEngine(LocalRadix8).Forward(queues1(dev), want, polys, tbls)

	dev2 := gpu.NewDevice1()
	qs := sycl.NewQueuesAllTiles(dev2, isa.CompilerGenerated)
	NewEngine(LocalRadix8).Forward(qs, data, polys, tbls)
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("dual-tile functional result differs at %d", i)
		}
	}
	// And the dual-tile submission must be faster in simulated time.
	if dev2.DeviceTime() >= dev.DeviceTime() {
		t.Errorf("dual tile (%v) not faster than single (%v)", dev2.DeviceTime(), dev.DeviceTime())
	}
}

func TestTableIOpCounts(t *testing.T) {
	// Table I of the paper.
	want := map[int][3]float64{
		2:  {20, 28, 48},
		4:  {45, 112, 157},
		8:  {120, 336, 456},
		16: {260, 896, 1156},
	}
	for r, w := range want {
		other, butterfly, total := RoundOps(r)
		if other != w[0] || butterfly != w[1] || total != w[2] {
			t.Errorf("radix-%d ops = (%v,%v,%v), want %v (Table I)", r, other, butterfly, total, w)
		}
	}
}

func TestScheduleShapes(t *testing.T) {
	// 32K-point radix-8: one global round then four SLM rounds
	// (Section IV-B: "only two rounds of global memory access").
	e := NewEngine(LocalRadix8)
	rs := e.schedule(32768, true)
	if len(rs) != 5 {
		t.Fatalf("32K radix-8 rounds = %d, want 5", len(rs))
	}
	if !rs[0].global || rs[0].w != 3 {
		t.Errorf("first round must be a global radix-8 round: %+v", rs[0])
	}
	for _, r := range rs[1:] {
		if r.global || r.w != 3 {
			t.Errorf("SLM rounds must be radix-8: %+v", r)
		}
	}
	// Naive-free check: 4K fits entirely in SLM.
	rs4k := e.schedule(4096, true)
	for _, r := range rs4k {
		if r.global {
			t.Errorf("4K transform must not need global rounds: %+v", r)
		}
	}
	// Inverse mirrors forward: SLM rounds first.
	rsInv := e.schedule(32768, false)
	if rsInv[0].global || !rsInv[len(rsInv)-1].global {
		t.Error("inverse schedule must run SLM rounds before global rounds")
	}
	// At the workloads' sizes every round is radix-8, so every
	// transform ends in a radix-8 round that fuses the last-round
	// processing: the scalar finalize passes, which have no vector
	// kernel, never run there.
	for _, n := range []int{4096, 32768} {
		for _, forward := range []bool{true, false} {
			for _, r := range e.schedule(n, forward) {
				if r.w != 3 {
					t.Errorf("N=%d forward=%v: radix-%d round %+v, want radix-8 only", n, forward, 1<<r.w, r)
				}
			}
		}
	}
}

func TestVariantProperties(t *testing.T) {
	if LocalRadix8.Radix() != 8 || NaiveRadix2.Radix() != 2 || SIMD32x8.Radix() != 2 {
		t.Error("radix mapping wrong")
	}
	if SIMD8x8.slots() != 1 || SIMD16x8.slots() != 2 || SIMD32x8.slots() != 4 {
		t.Error("slots mapping wrong")
	}
	if len(AllVariants()) != 7 {
		t.Error("expected 7 variants")
	}
}

func TestEngineNTTMultiplication(t *testing.T) {
	// End-to-end: GPU forward (radix-8), dyadic multiply, GPU inverse
	// must equal the schoolbook negacyclic product.
	const n = 4096
	eachModulusClass(t, func(t *testing.T, class primeClass) {
		dataA, tbls := testSetup(t, n, 1, 1, class, 21)
		m := tbls[0].Modulus
		rng := rand.New(rand.NewSource(23))
		dataB := make([]uint64, n)
		for i := range dataB {
			dataB[i] = rng.Uint64() % m.Value
		}
		want := negacyclicConvolution(dataA, dataB, m)

		dev := gpu.NewDevice1()
		qs := queues1(dev)
		e := NewEngine(LocalRadix8)
		e.Forward(qs, dataA, 1, tbls)
		e.Forward(qs, dataB, 1, tbls)
		for i := 0; i < n; i++ {
			dataA[i] = m.MulMod(dataA[i], dataB[i])
		}
		e.Inverse(qs, dataA, 1, tbls)
		for i := 0; i < n; i++ {
			if dataA[i] != want[i] {
				t.Fatalf("NTT product mismatch at %d", i)
			}
		}
	})
}

// BenchmarkEngineButterfly times the functional layer alone: forward +
// inverse LocalRadix8 at the serving shape (N=4096, 2 polynomials × 4
// moduli), the routine shape (N=32768, 2 × 9) and the key switch's
// digit rows at the routine shape (N=32768, 81 rows: 9 digits × 9
// moduli, as ks_digit_extend's NTT runs them at L = 8; 21 MB, well past
// L2), reported per 2-point butterfly — the same quantity as the repo
// benchmark's ntt.host_ns_per_butterfly.* probes. Each shape runs under
// three modulus classes: its chain primes' size, 40 or 42 bits (the
// IFMA kernels where the CPU has them), 51 bits (the IFMA-wide kernels)
// and its special prime's size, 52 bits (IFMA-wide) or 54 (the 64-bit
// AVX-512 kernels). Each sub-benchmark's name ends in the family that
// ran its rounds here.
func BenchmarkEngineButterfly(b *testing.B) {
	for _, shape := range []struct {
		name       string
		n          int
		rns, polys int
		sizes      [3]int
	}{
		{"n4096x4", 4096, 4, 2, [3]int{40, 51, 52}},
		{"n32768x9", 32768, 9, 2, [3]int{42, 51, 54}},
		{"n32768x81", 32768, 9, 9, [3]int{42, 51, 54}},
	} {
		for _, bits := range shape.sizes {
			class := primeClass{bits: bits}
			family := kernelNames[wantKernels(class.primes(1, shape.n)[0])]
			b.Run(fmt.Sprintf("%s/%dbit/%s", shape.name, bits, family), func(b *testing.B) {
				polys := shape.polys
				data, tbls := testSetup(b, shape.n, shape.rns, polys, class, 1)
				qs := queues1(gpu.NewDevice1())
				e := NewEngine(LocalRadix8)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Forward(qs, data, polys, tbls)
					e.Inverse(qs, data, polys, tbls)
				}
				butterflies := 2 * polys * shape.rns * (shape.n / 2) * tbls[0].LogN
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(butterflies), "ns/butterfly")
			})
		}
	}
}
