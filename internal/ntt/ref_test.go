package ntt

import (
	"math/rand"
	"testing"

	"xehe/internal/xmath"
)

// refForward is the serial radix-2 Harvey lazy-reduction NTT
// (Algorithm 1 plus last round processing), written independently of
// the kernels' rounds: the oracle every host transform and GPU variant
// is checked against, bit for bit.
func refForward(x []uint64, t *Tables) {
	n := t.N
	p := t.Modulus.Value
	twoP := 2 * p
	tt := n
	for m := 1; m < n; m <<= 1 {
		tt >>= 1
		for i := 0; i < m; i++ {
			w := t.Roots[m+i]
			j1 := 2 * i * tt
			for j := j1; j < j1+tt; j++ {
				x[j], x[j+tt] = xmath.HarveyButterfly(x[j], x[j+tt], w, p, twoP)
			}
		}
	}
	for j := range x {
		x[j] = xmath.ReduceToRange(x[j], p)
	}
}

// refInverse is the serial radix-2 Gentleman–Sande inverse with the
// final n^{-1} scaling, the oracle of every inverse transform.
func refInverse(x []uint64, t *Tables) {
	n := t.N
	p := t.Modulus.Value
	twoP := 2 * p
	tt := 1
	for m := n; m > 1; m >>= 1 {
		j1 := 0
		h := m >> 1
		for i := 0; i < h; i++ {
			w := t.InvRoots[h+i]
			for j := j1; j < j1+tt; j++ {
				x[j], x[j+tt] = xmath.GSButterfly(x[j], x[j+tt], w, p, twoP)
			}
			j1 += 2 * tt
		}
		tt <<= 1
	}
	for j := range x {
		v := t.NInv.MulModLazy(x[j], p)
		if v >= p {
			v -= p
		}
		x[j] = v
	}
}

// negacyclicConvolution computes c = a * b mod (x^N + 1, p) by
// schoolbook O(N^2) multiplication: the ground truth the oracle and the
// engine are checked against.
func negacyclicConvolution(a, b []uint64, m xmath.Modulus) []uint64 {
	n := len(a)
	c := make([]uint64, n)
	p := m.Value
	for i := 0; i < n; i++ {
		if a[i] == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			prod := m.MulMod(a[i], b[j])
			k := i + j
			if k < n {
				c[k] = xmath.AddMod(c[k], prod, p)
			} else {
				c[k-n] = xmath.SubMod(c[k-n], prod, p)
			}
		}
	}
	return c
}

func smallTables(t testing.TB, n int) *Tables {
	t.Helper()
	p := xmath.GeneratePrimes(50, 1, n)[0]
	return NewTables(n, xmath.NewModulus(p))
}

func randPoly(rng *rand.Rand, n int, p uint64) []uint64 {
	x := make([]uint64, n)
	for i := range x {
		x[i] = rng.Uint64() % p
	}
	return x
}

// TestHostTransformsMatchOracle: Forward and Inverse run the kernels'
// rounds — radix-8 while three stages remain, then a radix-2 or radix-4
// remainder, the last round doing the last-round processing — and must
// equal the radix-2 oracle bit for bit at every log N from 1 to 15,
// which covers both remainder widths and rows with no radix-8 round at
// all, in every modulus class with the IFMA kernels on and off.
func TestHostTransformsMatchOracle(t *testing.T) {
	eachModulusClass(t, func(t *testing.T, class primeClass) {
		for logN := 1; logN <= 15; logN++ {
			n := 1 << logN
			tb := NewTables(n, xmath.NewModulus(class.primes(1, n)[0]))
			rng := rand.New(rand.NewSource(int64(logN)))
			x := randPoly(rng, n, tb.Modulus.Value)
			x[0] = tb.Modulus.Value - 1
			for _, dir := range []struct {
				name       string
				host, want func([]uint64, *Tables)
			}{{"Forward", Forward, refForward}, {"Inverse", Inverse, refInverse}} {
				got := append([]uint64(nil), x...)
				want := append([]uint64(nil), x...)
				dir.host(got, tb)
				dir.want(want, tb)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("log N = %d: %s element %d = %d, the radix-2 oracle gives %d", logN, dir.name, i, got[i], want[i])
					}
				}
			}
		}
	})
}

func TestForwardInverseRoundTrip(t *testing.T) {
	for _, n := range []int{4, 8, 64, 256, 4096} {
		tb := smallTables(t, n)
		rng := rand.New(rand.NewSource(int64(n)))
		x := randPoly(rng, n, tb.Modulus.Value)
		orig := append([]uint64(nil), x...)
		refForward(x, tb)
		refInverse(x, tb)
		for i := range x {
			if x[i] != orig[i] {
				t.Fatalf("n=%d: round trip mismatch at %d: %d != %d", n, i, x[i], orig[i])
			}
		}
	}
}

func TestForwardOutputRange(t *testing.T) {
	tb := smallTables(t, 512)
	rng := rand.New(rand.NewSource(9))
	x := randPoly(rng, 512, tb.Modulus.Value)
	refForward(x, tb)
	for i, v := range x {
		if v >= tb.Modulus.Value {
			t.Fatalf("output %d not reduced: %d", i, v)
		}
	}
}

func TestNTTMultiplicationMatchesSchoolbook(t *testing.T) {
	for _, n := range []int{8, 64, 512} {
		tb := smallTables(t, n)
		m := tb.Modulus
		rng := rand.New(rand.NewSource(int64(n) + 1))
		a := randPoly(rng, n, m.Value)
		b := randPoly(rng, n, m.Value)
		want := negacyclicConvolution(a, b, m)

		af := append([]uint64(nil), a...)
		bf := append([]uint64(nil), b...)
		refForward(af, tb)
		refForward(bf, tb)
		for i := range af {
			af[i] = m.MulMod(af[i], bf[i])
		}
		refInverse(af, tb)
		for i := range af {
			if af[i] != want[i] {
				t.Fatalf("n=%d: product mismatch at %d: %d != %d", n, i, af[i], want[i])
			}
		}
	}
}

func TestNTTLinearity(t *testing.T) {
	n := 256
	tb := smallTables(t, n)
	m := tb.Modulus
	rng := rand.New(rand.NewSource(3))
	a := randPoly(rng, n, m.Value)
	b := randPoly(rng, n, m.Value)
	sum := make([]uint64, n)
	for i := range sum {
		sum[i] = xmath.AddMod(a[i], b[i], m.Value)
	}
	refForward(a, tb)
	refForward(b, tb)
	refForward(sum, tb)
	for i := range sum {
		if sum[i] != xmath.AddMod(a[i], b[i], m.Value) {
			t.Fatalf("NTT(a+b) != NTT(a)+NTT(b) at %d", i)
		}
	}
}

func TestNewTablesPanics(t *testing.T) {
	p := xmath.NewModulus(xmath.GeneratePrimes(50, 1, 1024)[0])
	for _, n := range []int{0, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTables(%d) did not panic", n)
				}
			}()
			NewTables(n, p)
		}()
	}
	// NTT-unfriendly modulus.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NTT-unfriendly modulus did not panic")
			}
		}()
		NewTables(1<<20, p) // p ≡ 1 mod 2048 only
	}()
}
