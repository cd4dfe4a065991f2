package ckks

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"xehe/internal/poly"
)

// testContext bundles everything needed by scheme-level tests.
type testContext struct {
	params *Parameters
	enc    *Encoder
	kg     *KeyGenerator
	sk     *SecretKey
	pk     *PublicKey
	rlk    *RelinKey
	encr   *Encryptor
	decr   *Decryptor
	eval   *Evaluator
}

var sharedCtx *testContext

func newTestContext(t testing.TB, rotations ...int) *testContext {
	t.Helper()
	params := TestParameters()
	kg := NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinKey(sk)
	var gks []*GaloisKey
	for _, r := range rotations {
		gks = append(gks, kg.GenGaloisKey(sk, params.GaloisElement(r)))
	}
	return &testContext{
		params: params,
		enc:    NewEncoder(params),
		kg:     kg,
		sk:     sk,
		pk:     pk,
		rlk:    rlk,
		encr:   NewEncryptor(params, pk, 2),
		decr:   NewDecryptor(params, sk),
		eval:   NewEvaluator(params, rlk, gks...),
	}
}

func ctx(t testing.TB) *testContext {
	if sharedCtx == nil {
		sharedCtx = newTestContext(t, 1, 3)
	}
	return sharedCtx
}

func randomValues(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return v
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := ctx(t)
	vals := randomValues(c.params.Slots(), 10)
	pt := c.enc.Encode(vals, c.params.Scale, c.params.MaxLevel())
	got := c.enc.Decode(pt)
	if e := maxErr(vals, got); e > 1e-8 {
		t.Fatalf("encode/decode error %g too large", e)
	}
}

func TestEncodeShortInputZeroPads(t *testing.T) {
	c := ctx(t)
	vals := randomValues(4, 11)
	pt := c.enc.Encode(vals, c.params.Scale, c.params.MaxLevel())
	got := c.enc.Decode(pt)
	if e := maxErr(vals, got[:4]); e > 1e-8 {
		t.Fatalf("short encode error %g", e)
	}
	for i := 4; i < len(got); i++ {
		if cmplx.Abs(got[i]) > 1e-8 {
			t.Fatalf("slot %d not zero: %v", i, got[i])
		}
	}
}

func TestEncryptDecrypt(t *testing.T) {
	c := ctx(t)
	vals := randomValues(c.params.Slots(), 12)
	pt := c.enc.Encode(vals, c.params.Scale, c.params.MaxLevel())
	ct := c.encr.Encrypt(pt)
	got := c.enc.Decode(c.decr.Decrypt(ct))
	if e := maxErr(vals, got); e > 1e-6 {
		t.Fatalf("encrypt/decrypt error %g too large", e)
	}
}

func TestHomomorphicAddSub(t *testing.T) {
	c := ctx(t)
	a := randomValues(c.params.Slots(), 13)
	b := randomValues(c.params.Slots(), 14)
	cta := c.encr.Encrypt(c.enc.Encode(a, c.params.Scale, c.params.MaxLevel()))
	ctb := c.encr.Encrypt(c.enc.Encode(b, c.params.Scale, c.params.MaxLevel()))

	sum := c.enc.Decode(c.decr.Decrypt(c.eval.Add(cta, ctb)))
	// Ciphertexts subtract component-wise.
	moduli := c.params.ModuliAt(cta.Level)
	sub := &Ciphertext{Scale: cta.Scale, Level: cta.Level}
	for i := range cta.Value {
		d := poly.New(c.params.N, cta.Level+1)
		poly.SubInto(d, cta.Value[i], ctb.Value[i], moduli)
		sub.Value = append(sub.Value, d)
	}
	diff := c.enc.Decode(c.decr.Decrypt(sub))
	for i := range a {
		if cmplx.Abs(sum[i]-(a[i]+b[i])) > 1e-6 {
			t.Fatalf("add error at slot %d", i)
		}
		if cmplx.Abs(diff[i]-(a[i]-b[i])) > 1e-6 {
			t.Fatalf("sub error at slot %d", i)
		}
	}
}

func TestMulRelinRescale(t *testing.T) {
	c := ctx(t)
	a := randomValues(c.params.Slots(), 15)
	b := randomValues(c.params.Slots(), 16)
	cta := c.encr.Encrypt(c.enc.Encode(a, c.params.Scale, c.params.MaxLevel()))
	ctb := c.encr.Encrypt(c.enc.Encode(b, c.params.Scale, c.params.MaxLevel()))

	prod := c.eval.Mul(cta, ctb)
	if prod.Degree() != 2 {
		t.Fatal("product must be degree 2")
	}
	// Degree-2 ciphertexts must decrypt correctly too.
	got2 := c.enc.Decode(c.decr.Decrypt(prod))
	for i := range a {
		if cmplx.Abs(got2[i]-a[i]*b[i]) > 1e-4 {
			t.Fatalf("degree-2 decrypt error at slot %d: %v vs %v", i, got2[i], a[i]*b[i])
		}
	}

	rel := c.eval.Relinearize(prod)
	if rel.Degree() != 1 {
		t.Fatal("relinearized ciphertext must be degree 1")
	}
	got := c.enc.Decode(c.decr.Decrypt(rel))
	for i := range a {
		if cmplx.Abs(got[i]-a[i]*b[i]) > 1e-4 {
			t.Fatalf("relin error at slot %d: %v vs %v", i, got[i], a[i]*b[i])
		}
	}

	res := c.eval.Rescale(rel)
	if res.Level != c.params.MaxLevel()-1 {
		t.Fatal("rescale must drop one level")
	}
	if math.Abs(res.Scale-rel.Scale/float64(c.params.Basis.Moduli[c.params.MaxLevel()].Value)) > 1 {
		t.Fatal("rescale scale bookkeeping wrong")
	}
	got = c.enc.Decode(c.decr.Decrypt(res))
	for i := range a {
		if cmplx.Abs(got[i]-a[i]*b[i]) > 1e-4 {
			t.Fatalf("rescale error at slot %d", i)
		}
	}
}

func TestSquare(t *testing.T) {
	c := ctx(t)
	a := randomValues(c.params.Slots(), 17)
	ct := c.encr.Encrypt(c.enc.Encode(a, c.params.Scale, c.params.MaxLevel()))
	sq := c.eval.Rescale(c.eval.Relinearize(c.eval.Square(ct)))
	got := c.enc.Decode(c.decr.Decrypt(sq))
	for i := range a {
		if cmplx.Abs(got[i]-a[i]*a[i]) > 1e-4 {
			t.Fatalf("square error at slot %d", i)
		}
	}
}

func TestModSwitch(t *testing.T) {
	c := ctx(t)
	a := randomValues(c.params.Slots(), 20)
	ct := c.encr.Encrypt(c.enc.Encode(a, c.params.Scale, c.params.MaxLevel()))
	ms := c.eval.ModSwitch(ct)
	if ms.Level != c.params.MaxLevel()-1 {
		t.Fatal("modswitch must drop one level")
	}
	got := c.enc.Decode(c.decr.Decrypt(ms))
	if e := maxErr(a, got); e > 1e-6 {
		t.Fatalf("modswitch error %g", e)
	}
}

func TestRotate(t *testing.T) {
	c := ctx(t)
	slots := c.params.Slots()
	a := randomValues(slots, 21)
	ct := c.encr.Encrypt(c.enc.Encode(a, c.params.Scale, c.params.MaxLevel()))
	for _, k := range []int{1, 3} {
		rot := c.eval.Rotate(ct, k)
		got := c.enc.Decode(c.decr.Decrypt(rot))
		for i := 0; i < slots; i++ {
			want := a[(i+k)%slots]
			if cmplx.Abs(got[i]-want) > 1e-4 {
				t.Fatalf("rotate by %d: slot %d = %v, want %v", k, i, got[i], want)
			}
		}
	}
}

func TestDepthThreeCircuit(t *testing.T) {
	c := ctx(t)
	a := randomValues(c.params.Slots(), 22)
	ct := c.encr.Encrypt(c.enc.Encode(a, c.params.Scale, c.params.MaxLevel()))
	// Compute ((a^2)^2) over two levels.
	sq := c.eval.Rescale(c.eval.Relinearize(c.eval.Square(ct)))
	sq2 := c.eval.Rescale(c.eval.Relinearize(c.eval.Square(sq)))
	got := c.enc.Decode(c.decr.Decrypt(sq2))
	for i := range a {
		want := a[i] * a[i] * a[i] * a[i]
		if cmplx.Abs(got[i]-want) > 1e-2 {
			t.Fatalf("depth-2 circuit error at slot %d: %v vs %v", i, got[i], want)
		}
	}
}

func TestGaloisElement(t *testing.T) {
	c := ctx(t)
	if g := c.params.GaloisElement(0); g != 1 {
		t.Fatalf("GaloisElement(0) = %d, want 1", g)
	}
	if g := c.params.GaloisElement(1); g != 5 {
		t.Fatalf("GaloisElement(1) = %d, want 5", g)
	}
	// Rotation by -1 composed with +1 is the identity element.
	gm := c.params.GaloisElement(-1)
	twoN := uint64(2 * c.params.N)
	if (gm*5)%twoN != 1 {
		t.Fatalf("GaloisElement(-1)*5 != 1 mod 2N")
	}
}

func TestEvaluatorPanics(t *testing.T) {
	c := ctx(t)
	a := randomValues(c.params.Slots(), 23)
	ct := c.encr.Encrypt(c.enc.Encode(a, c.params.Scale, c.params.MaxLevel()))
	low := c.eval.ModSwitch(ct)
	mustPanic(t, "level mismatch", func() { c.eval.Add(ct, low) })
	prod := c.eval.Mul(ct, ct)
	mustPanic(t, "degree-2 Mul", func() { c.eval.Mul(prod, prod) })
	mustPanic(t, "missing galois key", func() { c.eval.Rotate(ct, 7) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}
