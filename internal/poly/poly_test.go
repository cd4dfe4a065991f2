package poly

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"

	"xehe/internal/ntt"
	"xehe/internal/xmath"
)

func setup(t testing.TB, n, comps int) ([]xmath.Modulus, []*ntt.Tables) {
	t.Helper()
	primes := xmath.GeneratePrimes(45, comps, n)
	moduli := make([]xmath.Modulus, comps)
	tbls := make([]*ntt.Tables, comps)
	for i, p := range primes {
		moduli[i] = xmath.NewModulus(p)
		tbls[i] = ntt.NewTables(n, moduli[i])
	}
	return moduli, tbls
}

func randPoly(n int, moduli []xmath.Modulus, seed int64) *Poly {
	rng := rand.New(rand.NewSource(seed))
	p := New(n, len(moduli))
	for i, m := range moduli {
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = rng.Uint64() % m.Value
		}
	}
	return p
}

// eachRow must visit every row exactly once and return only after the
// last one, whatever the row count and GOMAXPROCS.
func TestEachRowVisitsEveryRowOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for rows := 0; rows <= 9; rows++ {
			seen := make([]atomic.Int32, rows)
			eachRow(rows, func(i int) { seen[i].Add(1) })
			for i := range seen {
				if n := seen[i].Load(); n != 1 {
					t.Errorf("GOMAXPROCS %d, %d rows: row %d ran %d times", procs, rows, i, n)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

func TestAddSubNegRoundTrip(t *testing.T) {
	moduli, _ := setup(t, 256, 3)
	a := randPoly(256, moduli, 1)
	b := randPoly(256, moduli, 2)
	sum := New(256, 3)
	AddInto(sum, a, b, moduli)
	back := New(256, 3)
	SubInto(back, sum, b, moduli)
	if !back.Equal(a) {
		t.Fatal("(a+b)-b != a")
	}
	neg := New(256, 3)
	NegInto(neg, a, moduli)
	zero := New(256, 3)
	AddInto(zero, a, neg, moduli)
	for i := range zero.Coeffs {
		for j := range zero.Coeffs[i] {
			if zero.Coeffs[i][j] != 0 {
				t.Fatal("a + (-a) != 0")
			}
		}
	}
}

func TestMAdMatchesMulAdd(t *testing.T) {
	moduli, _ := setup(t, 128, 2)
	a := randPoly(128, moduli, 3)
	b := randPoly(128, moduli, 4)
	c := randPoly(128, moduli, 5)

	viaMad := c.Clone()
	MAdInto(viaMad, a, b, moduli)

	prod := New(128, 2)
	MulInto(prod, a, b, moduli)
	viaMulAdd := New(128, 2)
	AddInto(viaMulAdd, c, prod, moduli)
	viaMulAdd.IsNTT = viaMad.IsNTT

	if !viaMad.Equal(viaMulAdd) {
		t.Fatal("mad_mod fusion changed the result")
	}
}

func TestNTTDomainTracking(t *testing.T) {
	moduli, tbls := setup(t, 256, 2)
	a := randPoly(256, moduli, 6)
	orig := a.Clone()
	NTT(a, tbls)
	if !a.IsNTT {
		t.Fatal("IsNTT not set")
	}
	mustPanicP(t, func() { NTT(a, tbls) })
	INTT(a, tbls)
	if a.IsNTT {
		t.Fatal("IsNTT not cleared")
	}
	mustPanicP(t, func() { INTT(a, tbls) })
	if !a.Equal(orig) {
		t.Fatal("NTT round trip broke the polynomial")
	}
}

func TestMulScalar(t *testing.T) {
	moduli, _ := setup(t, 64, 2)
	a := randPoly(64, moduli, 7)
	s := []uint64{3, 7}
	out := New(64, 2)
	MulScalarInto(out, a, s, moduli)
	for i, m := range moduli {
		for j := range out.Coeffs[i] {
			if out.Coeffs[i][j] != m.MulMod(a.Coeffs[i][j], s[i]) {
				t.Fatal("scalar multiply wrong")
			}
		}
	}
}

func TestAutomorphismComposition(t *testing.T) {
	// φ_g1 ∘ φ_g2 = φ_{g1*g2 mod 2N}.
	moduli, _ := setup(t, 128, 1)
	a := randPoly(128, moduli, 8)
	g1, g2 := uint64(5), uint64(25)
	twoN := uint64(256)

	step1 := New(128, 1)
	Automorphism(step1, a, g2, moduli)
	step2 := New(128, 1)
	Automorphism(step2, step1, g1, moduli)

	direct := New(128, 1)
	Automorphism(direct, a, (g1*g2)%twoN, moduli)
	if !step2.Equal(direct) {
		t.Fatal("automorphism composition broken")
	}
}

func TestAutomorphismIdentity(t *testing.T) {
	moduli, _ := setup(t, 64, 2)
	a := randPoly(64, moduli, 9)
	out := New(64, 2)
	Automorphism(out, a, 1, moduli)
	if !out.Equal(a) {
		t.Fatal("φ_1 must be the identity")
	}
}

// Property: automorphism is a ring homomorphism w.r.t. addition.
func TestQuickAutomorphismAdditive(t *testing.T) {
	moduli, _ := setup(t, 64, 1)
	prop := func(seed1, seed2 int64) bool {
		a := randPoly(64, moduli, seed1)
		b := randPoly(64, moduli, seed2)
		sum := New(64, 1)
		AddInto(sum, a, b, moduli)
		left := New(64, 1)
		Automorphism(left, sum, 5, moduli)

		fa, fb := New(64, 1), New(64, 1)
		Automorphism(fa, a, 5, moduli)
		Automorphism(fb, b, 5, moduli)
		right := New(64, 1)
		AddInto(right, fa, fb, moduli)
		right.IsNTT = left.IsNTT
		return left.Equal(right)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestAutomorphismNTTMatchesCoefficientForm: the NTT-form gather is
// INTT -> Automorphism -> NTT, bit for bit, for every Galois element a
// rotation can use — all of <5> (a rotation by -k is 5^(N/2-k)) — plus
// conjugation (2N-1) and conjugated rotations, under 30/50/60-bit
// moduli. At N = 4096 the moduli take turns so the sweep stays cheap.
func TestAutomorphismNTTMatchesCoefficientForm(t *testing.T) {
	for _, n := range []int{16, 4096} {
		var moduli []xmath.Modulus
		var tbls []*ntt.Tables
		for _, bitsz := range []int{30, 50, 60} {
			m := xmath.NewModulus(xmath.GeneratePrimes(bitsz, 1, n)[0])
			moduli = append(moduli, m)
			tbls = append(tbls, ntt.NewTables(n, m))
		}
		coeff := randPoly(n, moduli, int64(n))
		src := coeff.Clone()
		NTT(src, tbls)

		check := func(galois uint64, comps []int) {
			t.Helper()
			perm := GaloisPermutationNTT(n, galois)
			for _, q := range comps {
				mq, tq := moduli[q:q+1], tbls[q:q+1]
				want := New(n, 1)
				Automorphism(want, &Poly{N: n, Coeffs: coeff.Coeffs[q : q+1]}, galois, mq)
				NTT(want, tq)
				got := make([]uint64, n)
				half := n / 2 // applied in two ranges, as the kernels do
				AutomorphismNTT(got[:half], src.Coeffs[q], perm[:half])
				AutomorphismNTT(got[half:], src.Coeffs[q], perm[half:])
				for i := range got {
					if got[i] != want.Coeffs[0][i] {
						t.Fatalf("N=%d g=%d modulus %d: slot %d = %d, want %d", n, galois, q, i, got[i], want.Coeffs[0][i])
					}
				}
			}
		}
		twoN := uint64(2 * n)
		g := uint64(1)
		for e := 0; e < n/2; e++ {
			comps := []int{0, 1, 2}
			if n > 16 {
				comps = []int{e % 3}
			}
			check(g, comps)
			if e < 8 {
				check(twoN-g, comps) // conjugation, alone and after a rotation
			}
			g = g * 5 % twoN
		}
		if g != 1 {
			t.Fatalf("N=%d: 5 has order != N/2 (5^(N/2) = %d)", n, g)
		}
	}
}

// perm(g1) after perm(g2) is perm(g1*g2 mod 2N): the tables form the
// same group as the Galois elements they stand for.
func TestGaloisPermutationNTTComposition(t *testing.T) {
	for _, n := range []int{16, 4096} {
		twoN := uint64(2 * n)
		elems := []uint64{1, 5, 25, 3125 % twoN, twoN - 1, twoN - 5, (twoN - 1) * 125 % twoN}
		for _, g1 := range elems {
			for _, g2 := range elems {
				p1, p2 := GaloisPermutationNTT(n, g1), GaloisPermutationNTT(n, g2)
				both := GaloisPermutationNTT(n, g1*g2%twoN)
				for i := range both {
					if both[i] != p2[p1[i]] {
						t.Fatalf("N=%d: perm(%d) after perm(%d) differs from perm(%d) at slot %d", n, g1, g2, g1*g2%twoN, i)
					}
				}
			}
		}
	}
}

func TestDropLastAndClone(t *testing.T) {
	moduli, _ := setup(t, 64, 3)
	a := randPoly(64, moduli, 10)
	c := a.Clone()
	c.DropLast()
	if c.Components() != 2 || a.Components() != 3 {
		t.Fatal("DropLast must only affect the clone")
	}
	c.Coeffs[0][0] = 12345
	if a.Coeffs[0][0] == 12345 && a.Coeffs[0][0] != c.Coeffs[0][0] {
		t.Fatal("clone aliases original")
	}
}

func mustPanicP(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// MulScalarInto sets dst = a * s for per-component scalars s[i].
func MulScalarInto(dst, a *Poly, s []uint64, moduli []xmath.Modulus) {
	for i := range dst.Coeffs {
		m := moduli[i]
		da, dd := a.Coeffs[i], dst.Coeffs[i]
		si := m.BarrettReduce(s[i])
		for j := range dd {
			dd[j] = m.MulMod(da[j], si)
		}
	}
	dst.IsNTT = a.IsNTT
}
