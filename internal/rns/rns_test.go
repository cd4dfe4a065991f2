package rns

import (
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"xehe/internal/xmath"
)

func testBasis(t testing.TB) *Basis {
	t.Helper()
	return NewCKKSBasis(4096, 4, 50, 40, 50)
}

func TestNewBasisValidation(t *testing.T) {
	for _, tc := range [][]uint64{nil, {}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("empty chain did not panic")
				}
			}()
			NewBasis(tc, 97)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate modulus did not panic")
			}
		}()
		ps := xmath.GeneratePrimes(40, 1, 1024)
		NewBasis([]uint64{ps[0], ps[0]}, 97)
	}()
	// A key switch sums one product per chain modulus unreduced in 128
	// bits: xmath.MaxLazyTerms moduli are accepted, one more is refused
	// with a message that names the bound.
	ps := xmath.GeneratePrimes(40, xmath.MaxLazyTerms+2, 1024)
	NewBasis(ps[:xmath.MaxLazyTerms], ps[xmath.MaxLazyTerms+1])
	func() {
		defer func() {
			r := recover()
			if msg, _ := r.(string); !strings.Contains(msg, strconv.Itoa(xmath.MaxLazyTerms)) {
				t.Errorf("chain of %d moduli: recovered %v, want a panic naming the bound %d", xmath.MaxLazyTerms+1, r, xmath.MaxLazyTerms)
			}
		}()
		NewBasis(ps[:xmath.MaxLazyTerms+1], ps[xmath.MaxLazyTerms+1])
	}()
}

// compose reconstructs the integer x in [0, Q_l) from its residues
// res[i] = x mod q_i, i = 0..level, via the CRT on math/big:
//
//	x = sum_i [res_i * (Q/q_i)^{-1}]_{q_i} * (Q/q_i)  mod Q
//
// It is the exact oracle of ComposeCenteredFloat64.
func compose(b *Basis, res []uint64, level int) *big.Int {
	q := b.Q(level)
	x, qHat := new(big.Int), new(big.Int)
	for i := 0; i <= level; i++ {
		mi := b.Moduli[i]
		ci := mi.MulMod(mi.BarrettReduce(res[i]), b.QHatInvModQi(level, i))
		qHat.Div(q, new(big.Int).SetUint64(mi.Value))
		x.Add(x, qHat.Mul(qHat, new(big.Int).SetUint64(ci)))
	}
	return x.Mod(x, q)
}

// composeCentered is compose as a signed integer in [-Q/2, Q/2), the
// centered representative decoding uses: Q is odd, so x in
// (floor(Q/2), Q) maps to x - Q and floor(Q/2) stays.
func composeCentered(b *Basis, res []uint64, level int) *big.Int {
	x, q := compose(b, res, level), b.Q(level)
	if x.Cmp(new(big.Int).Rsh(q, 1)) > 0 {
		x.Sub(x, q)
	}
	return x
}

func TestComposeDecomposeRoundTrip(t *testing.T) {
	b := testBasis(t)
	rng := rand.New(rand.NewSource(42))
	for level := 0; level <= b.MaxLevel(); level++ {
		q := b.Q(level)
		for trial := 0; trial < 50; trial++ {
			x := new(big.Int).Rand(rng, q)
			res := b.Decompose(x, level)
			got := compose(b, res, level)
			if got.Cmp(x) != 0 {
				t.Fatalf("level %d: compose(decompose(%v)) = %v", level, x, got)
			}
		}
	}
}

func TestComposeCentered(t *testing.T) {
	b := testBasis(t)
	for level := 0; level <= b.MaxLevel(); level++ {
		q := b.Q(level)
		half := new(big.Int).Rsh(q, 1) // (Q-1)/2: Q is odd
		for _, tc := range []struct{ x, want *big.Int }{
			{big.NewInt(-5), big.NewInt(-5)},
			{new(big.Int).Sub(half, big.NewInt(1)), new(big.Int).Sub(half, big.NewInt(1))},
			// The representative range is [-Q/2, Q/2): (Q-1)/2 is the
			// largest positive one, (Q+1)/2 comes back as -(Q-1)/2.
			{half, half},
			{new(big.Int).Add(half, big.NewInt(1)), new(big.Int).Neg(half)},
		} {
			if got := composeCentered(b, b.Decompose(tc.x, level), level); got.Cmp(tc.want) != 0 {
				t.Fatalf("level %d: centered compose of %v = %v, want %v", level, tc.x, got, tc.want)
			}
		}
	}
}

// wideBasis has Q > 2^1024: its largest centered values round to ±Inf.
func wideBasis(t testing.TB) *Basis {
	t.Helper()
	return NewCKKSBasis(1024, 18, 60, 60, 60)
}

// FuzzComposeCenteredFloat64 checks the limb composition against
// composeCentered(...).Float64(), bit for bit, on arbitrary integers —
// equivalently, arbitrary residue vectors — at every level of two
// bases. The seeds are 0, 1, Q-1 and both sides of floor(Q/2) at every
// level, values whose float64 rounding is an exact tie — to even down,
// to even up — alone and with a sticky bit in the top word or in a
// lower one, and random integers below the top Q; each with both signs.
func FuzzComposeCenteredFloat64(f *testing.F) {
	bases := []*Basis{testBasis(f), wideBasis(f)}
	rng := rand.New(rand.NewSource(7))
	seeds := []*big.Int{big.NewInt(0), big.NewInt(1)}
	for _, e := range []uint{0, 11, 70, 100} {
		for _, odd := range []int64{1<<53 + 1, 1<<53 + 3} {
			tie := new(big.Int).Lsh(big.NewInt(odd), e)
			seeds = append(seeds, tie, new(big.Int).Add(tie, big.NewInt(1)))
			if e > 1 {
				seeds = append(seeds, new(big.Int).SetBit(new(big.Int).Set(tie), int(e)-1, 1))
			}
		}
	}
	for _, b := range bases {
		for level := 0; level <= b.MaxLevel(); level++ {
			q := b.Q(level)
			half := new(big.Int).Rsh(q, 1)
			seeds = append(seeds, new(big.Int).Sub(q, big.NewInt(1)), half, new(big.Int).Add(half, big.NewInt(1)))
		}
		for i := 0; i < 50; i++ {
			seeds = append(seeds, new(big.Int).Rand(rng, b.Q(b.MaxLevel())))
		}
	}
	for _, x := range seeds {
		f.Add(x.Bytes(), false)
		f.Add(x.Bytes(), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, neg bool) {
		x := new(big.Int).SetBytes(data)
		if neg {
			x.Neg(x)
		}
		for _, b := range bases {
			for level := 0; level <= b.MaxLevel(); level++ {
				res := b.Decompose(x, level)
				rows := make([][]uint64, level+1)
				for i := range rows {
					rows[i] = res[i : i+1]
				}
				got := make([]float64, 1)
				b.ComposeCenteredFloat64(got, rows, level)
				want, _ := composeCentered(b, res, level).Float64()
				if math.Float64bits(got[0]) != math.Float64bits(want) {
					t.Fatalf("level %d, x = %v: got %v (%#x), want %v (%#x)", level, x, got[0], math.Float64bits(got[0]), want, math.Float64bits(want))
				}
			}
		}
	})
}

func TestQHatInvConsistency(t *testing.T) {
	b := testBasis(t)
	for level := 0; level <= b.MaxLevel(); level++ {
		for i := 0; i <= level; i++ {
			mi := b.Moduli[i]
			qHat := uint64(1)
			for j := 0; j <= level; j++ {
				if j != i {
					qHat = mi.MulMod(qHat, mi.BarrettReduce(b.Moduli[j].Value))
				}
			}
			if got := mi.MulMod(qHat, b.QHatInvModQi(level, i)); got != 1 {
				t.Fatalf("level %d, i %d: qHat * qHatInv = %d, want 1", level, i, got)
			}
		}
	}
}

func TestInvLastAndSpecialInverses(t *testing.T) {
	b := testBasis(t)
	for level := 1; level <= b.MaxLevel(); level++ {
		last := b.Moduli[level].Value
		for i := 0; i < level; i++ {
			mi := b.Moduli[i]
			if got := mi.MulMod(mi.BarrettReduce(last), b.InvLastModQi(level, i)); got != 1 {
				t.Fatalf("q_last * invLast != 1 at level %d, i %d", level, i)
			}
		}
		for i := 0; i <= level; i++ {
			mi := b.Moduli[i]
			if got := mi.MulMod(b.SpecialModQi(level, i), b.SpecialInvModQi(level, i)); got != 1 {
				t.Fatalf("p * pInv != 1 at level %d, i %d", level, i)
			}
		}
	}
}

// The Harvey operands the device kernels multiply by must give the
// canonical residue the Barrett MulMod of the host evaluator gives.
func TestInverseOperandsMatchBarrett(t *testing.T) {
	b := testBasis(t)
	rng := rand.New(rand.NewSource(11))
	for level := 0; level <= b.MaxLevel(); level++ {
		for i := 0; i <= level; i++ {
			mi := b.Moduli[i]
			ops := map[uint64]xmath.MulModOperand{b.SpecialInvModQi(level, i): b.SpecialInvOperand(level, i)}
			if i < level {
				ops[b.InvLastModQi(level, i)] = b.InvLastOperand(level, i)
			}
			for w, op := range ops {
				for _, y := range []uint64{0, 1, mi.Value - 1, rng.Uint64() % mi.Value, rng.Uint64() % mi.Value} {
					if got, want := op.MulMod(y, mi.Value), mi.MulMod(y, w); got != want {
						t.Fatalf("level %d, i %d: %d * %d = %d by operand, %d by Barrett", level, i, y, w, got, want)
					}
				}
			}
		}
	}
}

func TestCKKSBasisShape(t *testing.T) {
	b := NewCKKSBasis(8192, 5, 52, 40, 52)
	if len(b.Moduli) != 5 {
		t.Fatalf("chain length = %d, want 5", len(b.Moduli))
	}
	if got := bits.Len64(b.Moduli[0].Value); got != 52 {
		t.Errorf("first prime bits = %d, want 52", got)
	}
	for i := 1; i < 5; i++ {
		if got := bits.Len64(b.Moduli[i].Value); got != 40 {
			t.Errorf("mid prime %d bits = %d, want 40", i, got)
		}
	}
	if got := bits.Len64(b.Special.Value); got != 52 {
		t.Errorf("special prime bits = %d, want 52", got)
	}
	// Special must differ from every chain prime (key-switch soundness).
	for _, m := range b.Moduli {
		if m.Value == b.Special.Value {
			t.Fatal("special prime collides with chain prime")
		}
	}
}

func TestCKKSBasisEqualBitSizes(t *testing.T) {
	// All three bit sizes equal: all primes must still be distinct.
	b := NewCKKSBasis(4096, 3, 45, 45, 45)
	seen := map[uint64]bool{b.Special.Value: true}
	for _, m := range b.Moduli {
		if seen[m.Value] {
			t.Fatal("duplicate prime generated")
		}
		seen[m.Value] = true
	}
}

// Property: CRT composition is a ring homomorphism — compose of the
// residue-wise product equals the big-integer product mod Q.
func TestQuickCRTHomomorphism(t *testing.T) {
	b := testBasis(t)
	level := b.MaxLevel()
	q := b.Q(level)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := new(big.Int).Rand(rng, q)
		y := new(big.Int).Rand(rng, q)
		rx, ry := b.Decompose(x, level), b.Decompose(y, level)
		prod := make([]uint64, level+1)
		for i := range prod {
			prod[i] = b.Moduli[i].MulMod(rx[i], ry[i])
		}
		want := new(big.Int).Mul(x, y)
		want.Mod(want, q)
		return compose(b, prod, level).Cmp(want) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// QHatInvModQi returns (Q_l/q_i)^{-1} mod q_i at the given level.
func (b *Basis) QHatInvModQi(level, i int) uint64 { return b.levels[level].qHatInvModQi[i].Operand }

// Decompose returns the residues of the (possibly negative) integer x
// under q_0..q_level.
func (b *Basis) Decompose(x *big.Int, level int) []uint64 {
	res := make([]uint64, level+1)
	tmp := new(big.Int)
	mod := new(big.Int)
	for i := 0; i <= level; i++ {
		mod.SetUint64(b.Moduli[i].Value)
		tmp.Mod(x, mod) // Go's Mod is Euclidean: result in [0, q_i)
		res[i] = tmp.Uint64()
	}
	return res
}
