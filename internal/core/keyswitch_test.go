package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"xehe/internal/ckks"
	"xehe/internal/gpu"
	"xehe/internal/ntt"
)

// The device key switch differs from the host evaluator in two places
// that must not show in a single bit: Rotate permutes NTT-form rows
// instead of going through coefficient form, and each digit's row
// under its own modulus is read from the input instead of being
// inverse- and forward-transformed again. ckks.Evaluator does neither,
// which makes it an independent oracle for both.

func assertSameCT(t *testing.T, what string, got, want *ckks.Ciphertext) {
	t.Helper()
	if got.Level != want.Level || got.Scale != want.Scale || len(got.Value) != len(want.Value) {
		t.Fatalf("%s: level/scale/degree %d/%v/%d, host has %d/%v/%d", what,
			got.Level, got.Scale, len(got.Value), want.Level, want.Scale, len(want.Value))
	}
	for i := range want.Value {
		if !got.Value[i].Equal(want.Value[i]) {
			t.Fatalf("%s: component %d differs from the host evaluator", what, i)
		}
	}
}

// TestKeySwitchBitIdenticalToHostAtEveryLevel runs Rotate (a positive
// and a negative step) and Relinearize at every level down to 0 — where
// a digit's extension is the special-prime row alone — serially and as
// a batch of three, against the host evaluator.
func TestKeySwitchBitIdenticalToHostAtEveryLevel(t *testing.T) {
	h := newHarness(t)
	const jobs = 3
	steps := []int{1, -3}
	kg := ckks.NewKeyGenerator(h.params, 21)
	gks := map[int]*ckks.GaloisKey{}
	var keys []*ckks.GaloisKey
	for _, k := range steps {
		gks[k] = kg.GenGaloisKey(h.sk, h.params.GaloisElement(k))
		keys = append(keys, gks[k])
	}
	host := ckks.NewEvaluator(h.params, h.rlk, keys...)

	as, bs := make([]*ckks.Ciphertext, jobs), make([]*ckks.Ciphertext, jobs)
	for j := range as {
		as[j], _ = h.randCT(int64(200 + 2*j))
		bs[j], _ = h.randCT(int64(201 + 2*j))
	}
	for level := h.params.MaxLevel(); level >= 0; level-- {
		prods := make([]*ckks.Ciphertext, jobs)
		for j := range prods {
			prods[j] = host.Mul(as[j], bs[j])
		}
		c := newCtx(t, h, OptNTTAsm())
		dAs, _, _ := c.UploadBatch(as)
		dProds, _, _ := c.UploadBatch(prods)

		for _, k := range steps {
			what := fmt.Sprintf("Rotate(%d) at level %d", k, level)
			for j, out := range c.DownloadBatch(c.RotateBatch(dAs, k, gks[k])) {
				assertSameCT(t, what+", batched", out, host.Rotate(as[j], k))
			}
			assertSameCT(t, what, c.Download(c.Rotate(dAs[0], k, gks[k])), host.Rotate(as[0], k))
		}
		what := fmt.Sprintf("Relinearize at level %d", level)
		for j, out := range c.DownloadBatch(c.RelinearizeBatch(dProds, h.rlk)) {
			assertSameCT(t, what+", batched", out, host.Relinearize(prods[j]))
		}
		assertSameCT(t, what, c.Download(c.RelinearizeBatch(dProds[:1], h.rlk)[0]), host.Relinearize(prods[0]))

		if level > 0 {
			for j := range as {
				as[j], bs[j] = host.ModSwitch(as[j]), host.ModSwitch(bs[j])
			}
		}
	}
}

// nttRows counts the N-point rows the device transformed since the
// trace was enabled, from the work-items of the logged NTT kernels.
func nttRows(t *testing.T, dev *gpu.Device, itemsPerRow int) int {
	t.Helper()
	items := 0
	for _, e := range dev.Trace() {
		if strings.HasPrefix(e.Name, "ntt_") {
			items += e.Items
		}
	}
	if items%itemsPerRow != 0 {
		t.Fatalf("NTT kernels launched %d work-items, not a multiple of one row's %d", items, itemsPerRow)
	}
	return items / itemsPerRow
}

// TestKeySwitchTransformCount pins how many rows a key switch
// transforms at c = level+1 components: c for the target's inverse,
// c per digit (every modulus of {q_0..q_l, p} but its own), and
// 2(c+1) for the two mod-downs — c²+3c+2, for Relinearize and Rotate
// alike, since the automorphism is a gather. A round trip through
// coefficient form costs 4c more, a digit re-transformed under its own
// modulus c more; either fails here rather than in a benchmark.
func TestKeySwitchTransformCount(t *testing.T) {
	h := newHarness(t)
	cfg := OptNTTAsm()
	cfg.Analytic = true
	for _, jobs := range []int{1, 3} {
		for level := 0; level <= h.params.MaxLevel(); level++ {
			c := newCtx(t, h, cfg)
			dev := c.Device
			// One row's worth of NTT work-items under this variant and N.
			dev.EnableTrace()
			c.Engine.Forward(c.Queues, nil, 1, []*ntt.Tables{h.params.SpecialTable})
			itemsPerRow := nttRows(t, dev, 1)

			comps := level + 1
			want := jobs * (comps*comps + 3*comps + 2)
			deg1, deg2 := make([]*Ciphertext, jobs), make([]*Ciphertext, jobs)
			for j := range deg1 {
				deg1[j] = c.NewZeroCt(1, level, h.params.Scale, true)
				deg2[j] = c.NewZeroCt(2, level, h.params.Scale, true)
			}
			routines := map[string]func(){
				"RelinearizeBatch": func() { c.RelinearizeBatch(deg2, h.rlk) },
				"RotateBatch":      func() { c.RotateBatch(deg1, 1, h.gk) },
			}
			for name, run := range routines {
				dev.EnableTrace()
				run()
				if got := nttRows(t, dev, itemsPerRow); got != want {
					t.Errorf("%s of %d job(s) at c=%d transformed %d rows, want %d", name, jobs, comps, got, want)
				}
			}
		}
	}
}

// TestRescaleBitIdenticalToHost: the rescale runs its reduce, NTT and
// scale once over jobs × components × moduli, indexing rows by
// component × modulus, so it is checked where that indexing has more
// than the usual two components — a degree-2 ciphertext — as well as on
// degree 1, at every level with a modulus left to drop, on a batch of
// three and alone, against the host evaluator.
func TestRescaleBitIdenticalToHost(t *testing.T) {
	h := newHarness(t)
	const jobs = 3
	as, bs := make([]*ckks.Ciphertext, jobs), make([]*ckks.Ciphertext, jobs)
	for j := range as {
		as[j], _ = h.randCT(int64(300 + 2*j))
		bs[j], _ = h.randCT(int64(301 + 2*j))
	}
	for level := h.params.MaxLevel(); level >= 1; level-- {
		prods := make([]*ckks.Ciphertext, jobs)
		for j := range prods {
			prods[j] = h.host.Mul(as[j], bs[j])
		}
		c := newCtx(t, h, OptNTTAsm())
		for _, in := range []struct {
			what string
			cts  []*ckks.Ciphertext
		}{{"degree 1", as}, {"degree 2", prods}} {
			what := fmt.Sprintf("Rescale of %s at level %d", in.what, level)
			dIn, _, _ := c.UploadBatch(in.cts)
			for j, out := range c.DownloadBatch(c.RescaleBatch(dIn)) {
				assertSameCT(t, what+", batched", out, h.host.Rescale(in.cts[j]))
			}
			assertSameCT(t, what, c.Download(c.RescaleBatch(dIn[:1])[0]), h.host.Rescale(in.cts[0]))
		}
		for j := range as {
			as[j], bs[j] = h.host.ModSwitch(as[j]), h.host.ModSwitch(bs[j])
		}
	}
}

// TestLaunchCountIndependentOfBatchSize guards the property batching
// exists for, and the one pass per step on top of it: a routine over k
// same-shape ciphertexts submits exactly the kernels it submits for
// one, each k times as wide, and that sequence does not grow with the
// number of digits, moduli or components either. A per-job, per-digit
// or per-modulus loop slipped into the one implementation multiplies
// the launches and fails here rather than in a benchmark. The counts
// are the top-level (c = 4) sequences at the test parameters under the
// radix-8 NTT, where a transform is one kernel: a key switch is 9
// (copy, INTT, extend, NTT, inner product, INTT, reduce, NTT, scale), a
// rescale 5 (copy, INTT, reduce, NTT, scale), the tensor, the square
// and the automorphism 1 each.
func TestLaunchCountIndependentOfBatchSize(t *testing.T) {
	h := newHarness(t)
	cfg := OptNTTAsm()
	cfg.Analytic = true
	level := h.params.MaxLevel()
	for _, r := range []struct {
		name     string
		launches int
		run      func(c *Context, as, bs []*Ciphertext)
	}{
		{"MulLinRS", 15, func(c *Context, as, bs []*Ciphertext) { c.MulLinRSBatch(as, bs, h.rlk) }},
		{"SqrLinRS", 15, func(c *Context, as, _ []*Ciphertext) { c.SqrLinRSBatch(as, h.rlk) }},
		{"Relinearize", 9, func(c *Context, as, bs []*Ciphertext) {
			deg2 := make([]*Ciphertext, len(as))
			for j := range deg2 {
				deg2[j] = c.NewZeroCt(2, level, h.params.Scale, true)
			}
			c.RelinearizeBatch(deg2, h.rlk)
		}},
		{"Rotate", 10, func(c *Context, as, _ []*Ciphertext) { c.RotateBatch(as, 1, h.gk) }},
		{"Add", 2, func(c *Context, as, bs []*Ciphertext) { c.AddBatch(as, bs) }},
		{"ModSwitch", 2, func(c *Context, as, _ []*Ciphertext) { c.ModSwitchBatch(as) }},
	} {
		itemsOfOne := 0
		for _, k := range []int{1, 3, 8} {
			c := newCtx(t, h, cfg)
			as, bs := make([]*Ciphertext, k), make([]*Ciphertext, k)
			for j := range as {
				as[j] = c.NewZeroCt(1, level, h.params.Scale, true)
				bs[j] = c.NewZeroCt(1, level, h.params.Scale, true)
			}
			c.Device.EnableTrace()
			r.run(c, as, bs)
			launches, items := 0, 0
			for _, e := range c.Device.Trace() {
				if !e.Copy {
					launches++
					items += e.Items
				}
			}
			if k == 1 {
				itemsOfOne = items
			}
			if launches != r.launches || items != k*itemsOfOne {
				t.Errorf("%s of %d: %d launches over %d work-items, want %d launches over %d x %d",
					r.name, k, launches, items, r.launches, k, itemsOfOne)
			}
		}
	}
}

// DownloadBatch is DownloadBatchAsync plus the single synchronizing
// wait: the whole batch pays host-device synchronization once.
func (c *Context) DownloadBatch(cts []*Ciphertext) []*ckks.Ciphertext {
	outs, _, ev := c.DownloadBatchAsync(cts)
	ev.Wait()
	c.deps = nil
	return outs
}

// TestLaunchLostOnTheWireInsideAHold loses one kernel launch on the
// wire (a zero-latency link that InjectLinkFault arms on the host-local
// device) inside each kind of hold: ks_copy_target, the first launch of
// RelinearizeBatch's first row chain, and the first launch of an NTT,
// inside the engine's hold. The panic carries gpu.ErrLinkFault, Scoped
// hands every buffer of the failed routine back to the cache, and the
// hold and the row chain are gone with it: the context frees again, and
// its next key switch and rescale are bit-identical to the host
// evaluator's.
func TestLaunchLostOnTheWireInsideAHold(t *testing.T) {
	h := newHarness(t)
	a, _ := h.randCT(500)
	b, _ := h.randCT(501)
	relin := h.host.Relinearize(h.host.Mul(a, b))
	rescaled := h.host.Rescale(relin)
	c := newCtx(t, h, OptNTTAsm())
	dA, dB := c.Upload(a), c.Upload(b)
	for _, lose := range []struct {
		hop string // in the name of the launch that is lost
		run func()
	}{
		{"ks_copy_target", func() {
			prods := c.MulBatch(one(dA), one(dB))
			c.Device.InjectLinkFault(1)
			c.RelinearizeBatch(prods, h.rlk)
		}},
		{"ntt_", func() {
			zero := c.NewZeroCt(1, a.Level, a.Scale, false)
			c.Device.InjectLinkFault(1)
			c.FwdNTTCt(zero)
		}},
	} {
		used := c.Cache.UsedCount()
		var r any
		func() {
			defer func() { r = recover() }()
			c.Scoped(lose.run)
		}()
		if err, ok := r.(error); !ok || !errors.Is(err, gpu.ErrLinkFault) {
			t.Fatalf("losing %s: panic %v, want an ErrLinkFault", lose.hop, r)
		}
		if !strings.Contains(fmt.Sprint(r), lose.hop) {
			t.Fatalf("the lost launch was %v, want %s…", r, lose.hop)
		}
		if n := c.Cache.UsedCount(); n != used {
			t.Errorf("losing %s: %d buffers checked out after Scoped, %d before", lose.hop, n, used)
		}
		// No chain is left open: a free outside one goes through.
		c.Free(c.CloneCt(dA))
		out := c.RelinearizeBatch(c.MulBatch(one(dA), one(dB)), h.rlk)
		assertSameCT(t, "Relinearize after losing "+lose.hop, c.Download(out[0]), relin)
		assertSameCT(t, "Rescale after losing "+lose.hop, c.Download(c.RescaleBatch(out)[0]), rescaled)
	}
}

// TestFreeInsideRowChainPanics: a buffer freed inside a row chain may
// still be read by a held body, or handed out again by an allocation
// before the chain's bodies run, so freePolys panics there instead of
// letting memory be corrupted. The panic drops the chain's held bodies
// and un-holds the queue: the held copy never runs, and the context's
// next rescale is bit-identical to the host's.
func TestFreeInsideRowChainPanics(t *testing.T) {
	h := newHarness(t)
	ct, _ := h.randCT(400)
	c := newCtx(t, h, OptNTTAsm())
	d := c.Upload(ct)
	dst, bufs := c.allocPolys(1, 2)
	mustPanicCore(t, "freePolys inside a row chain", func() {
		c.rowChain(func() {
			c.ewKernelJobs("test_copy", 1, 2, profileOf(), 0, 16, gpu.PatternUnitStride)
			c.ew.Body = rowBody(func(jb, q, lo, hi int) {
				copy(dst[jb].Coeffs[q][lo:hi], d.CT.Value[0].Coeffs[q][lo:hi])
			})
			c.launch()
			c.freePolys(bufs)
		})
	})
	for q, row := range dst[0].Coeffs {
		if slices.Equal(row, d.CT.Value[0].Coeffs[q][:len(row)]) {
			t.Errorf("row %d: the held copy ran after its chain panicked", q)
		}
	}
	c.freePolys(bufs)
	assertSameCT(t, "Rescale after the failed chain", c.Download(c.RescaleBatch(one(d))[0]), h.host.Rescale(ct))
}
