package sched

import (
	"reflect"
	"runtime"
	"testing"

	"xehe/internal/gpu"
)

// TestTimingOnlySchedulerIsATwin runs one short uniform stream through
// a one-worker scheduler functionally and in timing-only mode
// (Config.Core.Analytic: kernel bodies skipped, size-only device
// buffers) and requires the same Stats — counters, bytes moved, cache
// hits, simulated latency quantiles — and the same simulated clock,
// while the timing-only run allocates no host memory for its results.
// Jobs go one at a time so every batch is a single job whatever the
// host's speed; batch composition under a backlog depends on goroutine
// interleaving in either mode (the fused-batch kernels and gathered
// transfers are compared on the serial context in
// fhebench.TestTimingOnlyIsAFaithfulTwin).
func TestTimingOnlySchedulerIsATwin(t *testing.T) {
	h := sharedHarness(t)
	vals := make([]complex128, h.Params.Slots())
	a, b := h.Encrypt(vals), h.Encrypt(vals)
	const jobs = 8
	run := func(analytic bool) (Stats, float64, int64, uint64) {
		cfg := schedConfig(1)
		cfg.Core.Analytic = analytic
		s := newSchedulerWith(t, h, gpu.Device1Spec(), cfg)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < jobs; i++ {
			j := NewJob(a, b)
			j.Rotate(j.MulRelinRescale(0, 1), 1)
			f, err := s.Submit(j)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		s.Drain()
		runtime.ReadMemStats(&after)
		_, _, allocs := s.Device().AllocStats()
		return shardStats(s), s.Device().SimulatedSeconds(), allocs, (after.TotalAlloc - before.TotalAlloc) / jobs
	}
	want, wantSim, wantAllocs, _ := run(false)
	got, gotSim, gotAllocs, gotHeap := run(true)
	if want.Jobs != jobs || want.Failed != 0 || want.CacheHits == 0 || wantSim <= 0 {
		t.Fatalf("functional run exercised nothing: %+v, %g simulated seconds", want, wantSim)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("timing-only Stats\n%+v\nfunctional Stats\n%+v", got, want)
	}
	if gotSim != wantSim || gotAllocs != wantAllocs {
		t.Errorf("timing-only run: %g simulated seconds, %d driver allocations; functional: %g, %d", gotSim, gotAllocs, wantSim, wantAllocs)
	}
	// A timing-only job leaves the Go heap alone: its bookkeeping
	// measures 81 KB here, against 265 KB when each downloaded result
	// allocates and zeroes its own N × components host words.
	const limit = 128 << 10
	if gotHeap > limit {
		t.Errorf("timing-only run allocated %d B of Go heap per job, want at most %d", gotHeap, limit)
	}
}
