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

// TestQuickMAdModVecMatchesScalar pins the vector form to MAdMod, the
// definition, over random moduli (2 up to 60 bits), random vectors and
// the edge values 0 and p-1.
func TestQuickMAdModVecMatchesScalar(t *testing.T) {
	f := func(rawP uint64, seed int64, n uint8) bool {
		m := fuzzModulus(rawP)
		p := m.Value
		rng := rand.New(rand.NewSource(seed))
		a, b, acc := make([]uint64, n), make([]uint64, n), make([]uint64, n)
		for i := range acc {
			a[i], b[i], acc[i] = rng.Uint64()%p, rng.Uint64()%p, rng.Uint64()%p
			if i%5 == 0 {
				a[i], b[i], acc[i] = p-1, p-1, p-1
			} else if i%7 == 0 {
				a[i] = 0
			}
		}
		want := make([]uint64, n)
		for i := range want {
			want[i] = m.MAdMod(a[i], b[i], acc[i])
		}
		m.MAdModVec(acc, a, b)
		for i := range want {
			if acc[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
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
