package fhebench

import (
	"fmt"
	"runtime"
	"testing"

	"xehe/internal/apps/matmul"
	"xehe/internal/ckks"
	"xehe/internal/core"
	"xehe/internal/gpu"
	"xehe/internal/poly"
	"xehe/internal/race"
)

// The timing-only mode (core.Config.Analytic) is only worth having if
// it is a faithful twin of the functional run: same simulated clocks,
// same driver accounting, same cache decisions, same command log. The
// tests here run one op stream both ways and compare everything the
// model produces; they are the proof behind handing out buffers with no
// memory of their own (memcache.NewTimingOnly).

// twinState is everything a run leaves behind that the model defines.
type twinState struct {
	HostTime, DeviceTime gpu.Cycles
	Live, Peak, Allocs   int64
	Hits, Misses         int64
	Free, Used           int
}

// twinRun runs the stream twice on one fresh context (the second pass
// meets a populated cache) and snapshots the device and the cache.
func twinRun(params *ckks.Parameters, cfg core.Config, stream func(*core.Context)) (twinState, []gpu.TraceEntry) {
	dev := gpu.NewDevice1()
	dev.EnableTrace()
	ctx := core.NewContext(params, dev, cfg)
	stream(ctx)
	stream(ctx)
	ctx.Wait()
	var st twinState
	st.HostTime, st.DeviceTime = dev.HostTime(), dev.DeviceTime()
	st.Live, st.Peak, st.Allocs = dev.AllocStats()
	st.Hits, st.Misses = ctx.Cache.Stats()
	st.Free, st.Used = ctx.Cache.FreeCount(), ctx.Cache.UsedCount()
	return st, dev.Trace()
}

// zeroCt is a fresh degree-1 host ciphertext of zeros in NTT form: the
// simulated cost of a routine does not depend on the data, and zeros
// are valid operands for the functional run.
func zeroCt(params *ckks.Parameters) *ckks.Ciphertext {
	level := params.MaxLevel()
	ct := &ckks.Ciphertext{Scale: params.Scale, Level: level}
	for i := 0; i < 2; i++ {
		p := poly.New(params.N, level+1)
		p.IsNTT = true
		ct.Value = append(ct.Value, p)
	}
	return ct
}

// twinStream is one op stream to run both ways.
type twinStream struct {
	name string
	run  func(*core.Context)
}

// twinStreams are the op streams compared: the paper's application and
// routines through the serial evaluator, and one fused batch through
// the gathered transfers and widened kernels the scheduler drives.
func twinStreams(params *ckks.Parameters) []twinStream {
	rlk, gk := DummyRelinKey(params), DummyGaloisKey(params, 1)
	routine := func(op func(ctx *core.Context, a, b *core.Ciphertext) *core.Ciphertext) func(*core.Context) {
		return func(ctx *core.Context) {
			a, b := ctx.Upload(zeroCt(params)), ctx.Upload(zeroCt(params))
			out := op(ctx, a, b)
			ctx.Download(out)
			ctx.Free(a)
			ctx.Free(b)
			ctx.Free(out)
		}
	}
	return []twinStream{
		{"matMul_3x2x2", func(ctx *core.Context) {
			w := matmul.Workload{M: 3, N: 2, K: 2}
			for _, row := range matmul.Run(ctx, analyticMatrix(params, w.M, w.K), analyticMatrix(params, w.K, w.N), w) {
				for _, c := range row {
					ctx.Download(c)
					ctx.Free(c)
				}
			}
		}},
		{"MulLin", routine(func(ctx *core.Context, a, b *core.Ciphertext) *core.Ciphertext { return ctx.MulLin(a, b, rlk) })},
		{"MulLinRS", routine(func(ctx *core.Context, a, b *core.Ciphertext) *core.Ciphertext { return ctx.MulLinRS(a, b, rlk) })},
		{"SqrLinRS", routine(func(ctx *core.Context, a, _ *core.Ciphertext) *core.Ciphertext { return ctx.SqrLinRS(a, rlk) })},
		{"Rotate", routine(func(ctx *core.Context, a, _ *core.Ciphertext) *core.Ciphertext { return ctx.Rotate(a, 1, gk) })},
		{"batch_of_3", func(ctx *core.Context) {
			host := []*ckks.Ciphertext{zeroCt(params), zeroCt(params), zeroCt(params)}
			as, _, _ := ctx.UploadBatch(host)
			bs, _, _ := ctx.UploadBatch(host)
			rs := ctx.MulLinRSBatch(as, bs, rlk)
			outs := ctx.RotateBatch(rs, 1, gk)
			_, _, ev := ctx.DownloadBatchAsync(outs)
			ev.Wait()
			for _, cts := range [][]*core.Ciphertext{as, bs, rs, outs} {
				for _, ct := range cts {
					ctx.Free(ct)
				}
			}
		}},
	}
}

// TestTimingOnlyIsAFaithfulTwin runs every stream functionally and in
// timing-only mode, with the memory cache off and on, and requires the
// two runs to agree on every clock, counter and trace entry.
func TestTimingOnlyIsAFaithfulTwin(t *testing.T) {
	params := ckks.TestParameters()
	for _, s := range twinStreams(params) {
		for _, memCache := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/memcache=%v", s.name, memCache), func(t *testing.T) {
				cfg := core.OptNTTAsm()
				cfg.MemCache = memCache
				want, wantTrace := twinRun(params, cfg, s.run)
				cfg.Analytic = true
				got, gotTrace := twinRun(params, cfg, s.run)

				if got != want {
					t.Errorf("timing-only run read\n%+v\nfunctional run\n%+v", got, want)
				}
				if want.Allocs == 0 || len(wantTrace) == 0 || (memCache && want.Hits == 0) {
					t.Fatalf("stream exercised nothing: %+v, %d trace entries", want, len(wantTrace))
				}
				if len(gotTrace) != len(wantTrace) {
					t.Fatalf("timing-only run logged %d commands, functional run %d", len(gotTrace), len(wantTrace))
				}
				for i := range wantTrace {
					if gotTrace[i] != wantTrace[i] {
						t.Fatalf("command %d: timing-only %+v, functional %+v", i, gotTrace[i], wantTrace[i])
					}
				}
			})
		}
	}
}

// TestTimingOnlyMatMulStaysOffTheHeap is the allocation guard of a
// timing-only matMul_10x9x8, which once zeroed ~1.4 GB of buffers
// nobody reads. It bounds heap objects (MemStats.Mallocs) and bytes at
// the measured figures + 25 %. What a run still pays for: one 352-byte
// object per device ciphertext (1,682; core's
// TestWarmTimingOnlyCiphertextsAllocateOne pins it at one), with the
// cache on one sycl.Buffer per pooled buffer (578 misses on a fresh
// cache), one event list per Upload, the host matrices' headers and the
// NTT plans of a fresh engine — and nothing per kernel launch
// (core.TestWarmTimingOnlyLaunchesAllocateNothing). A ciphertext built
// piece by piece read 17,750 objects (549 KB) under the baseline config
// and 15,478 (513 KB) under mem cache. Bytes rose 12 % and 32 %: the one
// object is a little larger than the pieces it replaced, and under mem
// cache it also holds three buffer headers it does not use.
// Per-launch kernel descriptors, body closures, event slices and shape
// views read 2.89 MB, and a scratch slab per timing-only cache (49,152
// words, 393 KB) or a `make` of buffer words on this path lands far
// above the byte bound.
func TestTimingOnlyMatMulStaysOffTheHeap(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	w := matmul.PaperWorkloads()[1]
	steps := MatMulSteps()
	for _, c := range []struct {
		st                     MatMulStep
		measuredB, measuredObj uint64
	}{
		{steps[0], 614_360, 2_101},
		{steps[len(steps)-1], 679_656, 2_705},
	} {
		RunMatMul(gpu.Device1Spec(), c.st.Cfg, matmul.Workload{M: 1, N: 1, K: 1}) // parameters, shape polys and the scratch slab exist
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		RunMatMul(gpu.Device1Spec(), c.st.Cfg, w)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, c.measuredB+c.measuredB/4; got > limit {
			t.Errorf("%s under %q allocated %d bytes of Go heap, want at most %d", w, c.st.Name, got, limit)
		}
		if got, limit := after.Mallocs-before.Mallocs, c.measuredObj+c.measuredObj/4; got > limit {
			t.Errorf("%s under %q allocated %d heap objects, want at most %d", w, c.st.Name, got, limit)
		}
	}
}
