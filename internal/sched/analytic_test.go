package sched

import (
	"reflect"
	"testing"

	"xehe/internal/gpu"
)

// TestTimingOnlySchedulerIsATwin runs one short uniform stream through
// a one-worker scheduler functionally and in timing-only mode
// (Config.Core.Analytic: kernel bodies skipped, size-only device
// buffers) and requires the same Stats — counters, bytes moved, cache
// hits, simulated latency quantiles — and the same simulated clock.
// Jobs go one at a time so every batch is a single job whatever the
// host's speed; batch composition under a backlog depends on goroutine
// interleaving in either mode (the fused-batch kernels and gathered
// transfers are compared on the serial context in
// fhebench.TestTimingOnlyIsAFaithfulTwin).
func TestTimingOnlySchedulerIsATwin(t *testing.T) {
	h := sharedHarness(t)
	vals := make([]complex128, h.Params.Slots())
	a, b := h.Encrypt(vals), h.Encrypt(vals)
	run := func(analytic bool) (Stats, float64, int64) {
		cfg := schedConfig(1)
		cfg.Core.Analytic = analytic
		dev := gpu.NewDevice1()
		s := New(h.Params, dev, cfg, h.RelinKey(), h.GaloisKeys())
		defer s.Close()
		for i := 0; i < 8; i++ {
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
		_, _, allocs := dev.AllocStats()
		return s.Stats(), s.Backend().SimulatedSeconds(), allocs
	}
	want, wantSim, wantAllocs := run(false)
	got, gotSim, gotAllocs := run(true)
	if want.Jobs != 8 || want.Failed != 0 || want.CacheHits == 0 || wantSim <= 0 {
		t.Fatalf("functional run exercised nothing: %+v, %g simulated seconds", want, wantSim)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("timing-only Stats\n%+v\nfunctional Stats\n%+v", got, want)
	}
	if gotSim != wantSim || gotAllocs != wantAllocs {
		t.Errorf("timing-only run: %g simulated seconds, %d driver allocations; functional: %g, %d", gotSim, gotAllocs, wantSim, wantAllocs)
	}
}
