package xmath

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

const testPrime = uint64(1152921504606830593) // 60-bit, ≡ 1 mod 2^17

func testModulus(t testing.TB) Modulus {
	t.Helper()
	if !IsPrime(testPrime) {
		t.Fatalf("test prime %d is not prime", testPrime)
	}
	return NewModulus(testPrime)
}

func TestNewModulusConstRatio(t *testing.T) {
	m := testModulus(t)
	// ConstRatio must equal floor(2^128 / p).
	two128 := new(big.Int).Lsh(big.NewInt(1), 128)
	want := new(big.Int).Div(two128, new(big.Int).SetUint64(m.Value))
	got := new(big.Int).Lsh(new(big.Int).SetUint64(m.ConstRatio[1]), 64)
	got.Add(got, new(big.Int).SetUint64(m.ConstRatio[0]))
	if want.Cmp(got) != 0 {
		t.Fatalf("ConstRatio = %v, want %v", got, want)
	}
}

func TestNewModulusPanics(t *testing.T) {
	for _, bad := range []uint64{0, 1, 1 << 61} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewModulus(%d) did not panic", bad)
				}
			}()
			NewModulus(bad)
		}()
	}
}

func TestAddSubNegMod(t *testing.T) {
	p := uint64(97)
	for a := uint64(0); a < p; a++ {
		for b := uint64(0); b < p; b++ {
			if got, want := AddMod(a, b, p), (a+b)%p; got != want {
				t.Fatalf("AddMod(%d,%d) = %d, want %d", a, b, got, want)
			}
			if got, want := SubMod(a, b, p), (a+p-b)%p; got != want {
				t.Fatalf("SubMod(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
		if got, want := NegMod(a, p), (p-a)%p; got != want {
			t.Fatalf("NegMod(%d) = %d, want %d", a, got, want)
		}
	}
}

func TestBarrettReduceAgainstBig(t *testing.T) {
	m := testModulus(t)
	rng := rand.New(rand.NewSource(1))
	pb := new(big.Int).SetUint64(m.Value)
	for i := 0; i < 2000; i++ {
		a := rng.Uint64()
		want := new(big.Int).Mod(new(big.Int).SetUint64(a), pb).Uint64()
		if got := m.BarrettReduce(a); got != want {
			t.Fatalf("BarrettReduce(%d) = %d, want %d", a, got, want)
		}
	}
}

func TestBarrettReduce128AgainstBig(t *testing.T) {
	m := testModulus(t)
	rng := rand.New(rand.NewSource(2))
	pb := new(big.Int).SetUint64(m.Value)
	for i := 0; i < 2000; i++ {
		hi, lo := rng.Uint64()>>4, rng.Uint64() // keep below 2^124
		v := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		v.Add(v, new(big.Int).SetUint64(lo))
		want := v.Mod(v, pb).Uint64()
		if got := m.BarrettReduce128(hi, lo); got != want {
			t.Fatalf("BarrettReduce128(%d,%d) = %d, want %d", hi, lo, got, want)
		}
	}
}

func TestMulModAgainstBig(t *testing.T) {
	m := testModulus(t)
	rng := rand.New(rand.NewSource(3))
	pb := new(big.Int).SetUint64(m.Value)
	for i := 0; i < 2000; i++ {
		a := rng.Uint64() % m.Value
		b := rng.Uint64() % m.Value
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, pb)
		if got := m.MulMod(a, b); got != want.Uint64() {
			t.Fatalf("MulMod(%d,%d) = %d, want %v", a, b, got, want)
		}
	}
}

func TestMAdModMatchesUnfused(t *testing.T) {
	m := testModulus(t)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		a := rng.Uint64() % m.Value
		b := rng.Uint64() % m.Value
		c := rng.Uint64() % m.Value
		want := AddMod(m.MulMod(a, b), c, m.Value)
		if got := m.MAdMod(a, b, c); got != want {
			t.Fatalf("MAdMod(%d,%d,%d) = %d, want %d", a, b, c, got, want)
		}
	}
}

func TestPowInvMod(t *testing.T) {
	m := testModulus(t)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		a := rng.Uint64()%(m.Value-1) + 1
		inv := m.InvMod(a)
		if got := m.MulMod(a, inv); got != 1 {
			t.Fatalf("a * a^-1 = %d, want 1 (a=%d)", got, a)
		}
	}
	if got := m.PowMod(2, 10); got != 1024 {
		t.Fatalf("PowMod(2,10) = %d, want 1024", got)
	}
	if got := m.PowMod(7, 0); got != 1 {
		t.Fatalf("PowMod(7,0) = %d, want 1", got)
	}
}

func TestInvModZeroPanics(t *testing.T) {
	m := testModulus(t)
	defer func() {
		if recover() == nil {
			t.Fatal("InvMod(0) did not panic")
		}
	}()
	m.InvMod(0)
}

func TestMulModOperandLazyRange(t *testing.T) {
	m := testModulus(t)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 2000; i++ {
		w := NewMulModOperand(rng.Uint64()%m.Value, m)
		y := rng.Uint64() % m.Value
		lazy := w.MulModLazy(y, m.Value)
		if lazy >= 2*m.Value {
			t.Fatalf("lazy product %d outside [0, 2p)", lazy)
		}
		want := m.MulMod(w.Operand, y)
		if got := w.MulMod(y, m.Value); got != want {
			t.Fatalf("operand MulMod = %d, want %d", got, want)
		}
	}
}

func TestHarveyButterflyInvariants(t *testing.T) {
	m := testModulus(t)
	p := m.Value
	twoP := 2 * p
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		x := rng.Uint64() % (4 * p)
		y := rng.Uint64() % (4 * p)
		w := NewMulModOperand(rng.Uint64()%p, m)
		x2, y2 := HarveyButterfly(x, y, w, p, twoP)
		if x2 >= 4*p || y2 >= 4*p {
			t.Fatalf("butterfly output out of lazy range: %d %d", x2, y2)
		}
		// Check congruences.
		wy := m.MulMod(w.Operand, m.BarrettReduce(y))
		wantX := AddMod(m.BarrettReduce(x), wy, p)
		wantY := SubMod(m.BarrettReduce(x), wy, p)
		if ReduceToRange(x2, p) != wantX || ReduceToRange(y2, p) != wantY {
			t.Fatalf("butterfly result mismatch")
		}
	}
}

func TestGSButterflyInvariants(t *testing.T) {
	m := testModulus(t)
	p := m.Value
	twoP := 2 * p
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		x := rng.Uint64() % twoP
		y := rng.Uint64() % twoP
		w := NewMulModOperand(rng.Uint64()%p, m)
		x2, y2 := GSButterfly(x, y, w, p, twoP)
		if x2 >= twoP || y2 >= twoP {
			t.Fatalf("GS butterfly output out of range: %d %d", x2, y2)
		}
		wantX := AddMod(m.BarrettReduce(x), m.BarrettReduce(y), p)
		diff := SubMod(m.BarrettReduce(x), m.BarrettReduce(y), p)
		wantY := m.MulMod(w.Operand, diff)
		if ReduceToRange(x2, p) != wantX || ReduceToRange(y2, p) != wantY {
			t.Fatalf("GS butterfly result mismatch")
		}
	}
}

// Property-based tests via testing/quick.

func TestQuickMulModCommutative(t *testing.T) {
	m := testModulus(t)
	f := func(a, b uint64) bool {
		a %= m.Value
		b %= m.Value
		return m.MulMod(a, b) == m.MulMod(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMulModAssociative(t *testing.T) {
	m := testModulus(t)
	f := func(a, b, c uint64) bool {
		a, b, c = a%m.Value, b%m.Value, c%m.Value
		return m.MulMod(m.MulMod(a, b), c) == m.MulMod(a, m.MulMod(b, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistributive(t *testing.T) {
	m := testModulus(t)
	f := func(a, b, c uint64) bool {
		a, b, c = a%m.Value, b%m.Value, c%m.Value
		left := m.MulMod(a, AddMod(b, c, m.Value))
		right := AddMod(m.MulMod(a, b), m.MulMod(a, c), m.Value)
		return left == right
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAddSubRoundTrip(t *testing.T) {
	m := testModulus(t)
	f := func(a, b uint64) bool {
		a, b = a%m.Value, b%m.Value
		return SubMod(AddMod(a, b, m.Value), b, m.Value) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestInnerProductPairMatchesMAdModChain pins the lazy inner product to
// the MAdMod chain from zero, the definition: random moduli (2 up to 60
// bits), 1 to MaxLazyTerms terms, ranges that start and end inside a
// block, random operands with the edge values 0 and p-1 mixed in — and
// the case the 2^128 bound is about, MaxLazyTerms terms with every
// operand p-1 at a 60-bit modulus.
func TestInnerProductPairMatchesMAdModChain(t *testing.T) {
	check := func(m Modulus, d, b, a [][]uint64, lo, hi int) bool {
		n := len(d[0])
		out0, out1 := make([]uint64, n), make([]uint64, n)
		m.InnerProductPair(out0, out1, d, b, a, lo, hi)
		for x := 0; x < n; x++ {
			var want0, want1 uint64
			if x >= lo && x < hi {
				for i := range d {
					want0 = m.MAdMod(d[i][x], b[i][x], want0)
					want1 = m.MAdMod(d[i][x], a[i][x], want1)
				}
			}
			if out0[x] != want0 || out1[x] != want1 {
				return false
			}
		}
		return true
	}
	rows := func(terms, n int, fill func() uint64) [][]uint64 {
		out := make([][]uint64, terms)
		for i := range out {
			out[i] = make([]uint64, n)
			for x := range out[i] {
				out[i][x] = fill()
			}
		}
		return out
	}

	f := func(rawP uint64, seed int64, rawTerms uint8, rawN uint16) bool {
		m := fuzzModulus(rawP)
		p := m.Value
		rng := rand.New(rand.NewSource(seed))
		terms := int(rawTerms)%MaxLazyTerms + 1
		n := int(rawN)%(2*lazyBlock+7) + 1
		fill := func() uint64 {
			switch rng.Intn(8) {
			case 0:
				return p - 1
			case 1:
				return 0
			}
			return rng.Uint64() % p
		}
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo) + 1
		return check(m, rows(terms, n, fill), rows(terms, n, fill), rows(terms, n, fill), lo, hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	m := NewModulus(uint64(1)<<MaxModulusBits - 1)
	top := func() uint64 { return m.Value - 1 }
	const n = lazyBlock + 3
	if !check(m, rows(MaxLazyTerms, n, top), rows(MaxLazyTerms, n, top), rows(MaxLazyTerms, n, top), 0, n) {
		t.Fatalf("%d terms of (p-1)^2 at p = 2^%d - 1 differ from the MAdMod chain", MaxLazyTerms, MaxModulusBits)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("%d terms accepted: the 128-bit sum may overflow", MaxLazyTerms+1)
		}
	}()
	over := rows(MaxLazyTerms+1, 1, top)
	m.InnerProductPair(make([]uint64, 1), make([]uint64, 1), over, over, over, 0, 1)
}

func BenchmarkMulMod(b *testing.B) {
	m := NewModulus(testPrime)
	x := uint64(123456789123456)
	for i := 0; i < b.N; i++ {
		x = m.MulMod(x, x|1)
	}
	sink = x
}

func BenchmarkMAdMod(b *testing.B) {
	m := NewModulus(testPrime)
	x := uint64(123456789123456)
	for i := 0; i < b.N; i++ {
		x = m.MAdMod(x, x|1, x>>1)
	}
	sink = x
}

func BenchmarkHarveyLazyMul(b *testing.B) {
	m := NewModulus(testPrime)
	w := NewMulModOperand(987654321987654, m)
	x := uint64(123456789123456)
	for i := 0; i < b.N; i++ {
		x = w.MulModLazy(x, m.Value) % m.Value
	}
	sink = x
}

var sink uint64
