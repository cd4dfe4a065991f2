package ntt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xehe/internal/gpu"
	"xehe/internal/xmath"
)

// Property-based tests on the NTT engines, per the invariants listed in
// DESIGN.md §6.

// TestQuickEngineLinearity: NTT(a + b) == NTT(a) + NTT(b) for every
// GPU variant (spot-checked on radix-8 and SIMD(8,8), which cover both
// kernel families).
func TestQuickEngineLinearity(t *testing.T) {
	const n = 1024
	tb := smallTables(t, n)
	m := tb.Modulus
	for _, v := range []Variant{LocalRadix8, SIMD8x8} {
		v := v
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			a := randPoly(rng, n, m.Value)
			b := randPoly(rng, n, m.Value)
			sum := make([]uint64, n)
			for i := range sum {
				sum[i] = xmath.AddMod(a[i], b[i], m.Value)
			}
			dev := gpu.NewDevice1()
			qs := queues1(dev)
			e := NewEngine(v)
			e.Forward(qs, a, 1, []*Tables{tb})
			e.Forward(qs, b, 1, []*Tables{tb})
			e.Forward(qs, sum, 1, []*Tables{tb})
			for i := range sum {
				if sum[i] != xmath.AddMod(a[i], b[i], m.Value) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
	}
}

// TestQuickEngineRoundTrip: Inverse(Forward(x)) == x on random batches
// and random variants.
func TestQuickEngineRoundTrip(t *testing.T) {
	const n = 2048
	tb := smallTables(t, n)
	variants := AllVariants()
	prop := func(seed int64, vpick uint8) bool {
		v := variants[int(vpick)%len(variants)]
		rng := rand.New(rand.NewSource(seed))
		x := randPoly(rng, n, tb.Modulus.Value)
		orig := append([]uint64(nil), x...)
		dev := gpu.NewDevice1()
		qs := queues1(dev)
		e := NewEngine(v)
		e.Forward(qs, x, 1, []*Tables{tb})
		e.Inverse(qs, x, 1, []*Tables{tb})
		for i := range x {
			if x[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickConvolutionTheorem: for random polynomials, the transform
// multiplied pointwise and inverted equals the negacyclic convolution.
func TestQuickConvolutionTheorem(t *testing.T) {
	const n = 256
	tb := smallTables(t, n)
	m := tb.Modulus
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randPoly(rng, n, m.Value)
		b := randPoly(rng, n, m.Value)
		want := negacyclicConvolution(a, b, m)

		dev := gpu.NewDevice1()
		qs := queues1(dev)
		e := NewEngine(LocalRadix4)
		af := append([]uint64(nil), a...)
		bf := append([]uint64(nil), b...)
		e.Forward(qs, af, 1, []*Tables{tb})
		e.Forward(qs, bf, 1, []*Tables{tb})
		for i := range af {
			af[i] = m.MulMod(af[i], bf[i])
		}
		e.Inverse(qs, af, 1, []*Tables{tb})
		for i := range af {
			if af[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineParseval-style energy check: the transform permutes
// evaluations, so the multiset of outputs is independent of variant.
func TestEngineVariantsAgreePairwise(t *testing.T) {
	const n = 4096
	tb := smallTables(t, n)
	rng := rand.New(rand.NewSource(77))
	ref := randPoly(rng, n, tb.Modulus.Value)

	var outputs [][]uint64
	for _, v := range AllVariants() {
		x := append([]uint64(nil), ref...)
		dev := gpu.NewDevice1()
		NewEngine(v).Forward(queues1(dev), x, 1, []*Tables{tb})
		outputs = append(outputs, x)
	}
	for i := 1; i < len(outputs); i++ {
		for j := range outputs[i] {
			if outputs[i][j] != outputs[0][j] {
				t.Fatalf("variant %s differs from %s at %d",
					AllVariants()[i], AllVariants()[0], j)
			}
		}
	}
}

// TestEngineEmptyBatch: degenerate inputs must be handled gracefully.
func TestEngineEmptyBatch(t *testing.T) {
	dev := gpu.NewDevice1()
	qs := queues1(dev)
	e := NewEngine(LocalRadix8)
	if evs := e.Forward(qs, nil, 0, nil); evs != nil {
		t.Fatal("empty batch must be a no-op")
	}
	tb := smallTables(t, 64)
	if evs := e.Forward(qs, nil, 0, []*Tables{tb}); evs != nil {
		t.Fatal("zero polys must be a no-op")
	}
}

// TestEngineShortDataPanics: the functional path must reject
// undersized buffers instead of corrupting memory.
func TestEngineShortDataPanics(t *testing.T) {
	tb := smallTables(t, 64)
	dev := gpu.NewDevice1()
	qs := queues1(dev)
	defer func() {
		if recover() == nil {
			t.Fatal("short data did not panic")
		}
	}()
	NewEngine(LocalRadix8).Forward(qs, make([]uint64, 10), 1, []*Tables{tb})
}

// TestNominalOpsMatchesTableI validates the engine-level op accounting
// against Table I at the 32K anchor: naive = 48·(N/2)·log2(N) + final,
// radix-8 = 456·(N/8)·log8(N) + fused finalization.
func TestNominalOpsMatchesTableI(t *testing.T) {
	spec := gpu.Device1Spec()
	tb := smallTables(t, 32768)
	n := float64(32768)

	naive := NewEngine(NaiveRadix2).NominalOps(&spec, 1, []*Tables{tb}, true)
	expectNaive := 48*(n/2)*15 + (n/2)*8 // stages + last-round kernel
	if ratio := naive / expectNaive; ratio < 0.99 || ratio > 1.01 {
		t.Errorf("naive nominal ops = %v, want ~%v", naive, expectNaive)
	}

	r8 := NewEngine(LocalRadix8).NominalOps(&spec, 1, []*Tables{tb}, true)
	expectR8 := 456 * (n / 8) * 5 // 5 radix-8 rounds
	if ratio := r8 / expectR8; ratio < 0.99 || ratio > 1.05 {
		t.Errorf("radix-8 nominal ops = %v, want ~%v (Table I)", r8, expectR8)
	}
}
