package sched

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"

	"xehe/internal/gpu"
)

// TestTracingDifferential pins the observability invariant: with span
// tracing enabled, results are still bit-for-bit identical to the
// serial reference (recording only reads the simulated clocks), the
// exported trace is valid Chrome-trace JSON, and reading Metrics or
// WriteTrace never advances the simulated clock.
func TestTracingDifferential(t *testing.T) {
	h := sharedHarness(t)
	rng := rand.New(rand.NewSource(4242))
	cfg := schedConfig(3)
	cfg.Trace = TraceConfig{Enabled: ToggleOn}
	s := New(h.Params, gpu.NewDevice1(), cfg, h.RelinKey(), h.GaloisKeys())
	defer s.Close()

	const nJobs = 16
	cases := make([]*Case, nJobs)
	futs := make([]*Future, nJobs)
	for i := range cases {
		cases[i] = h.RandomCase(rng, 5)
		fut, err := s.Submit(cases[i].Job)
		if err != nil {
			t.Fatalf("job %d: submit: %v", i, err)
		}
		futs[i] = fut
	}
	for i, fut := range futs {
		got, err := fut.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		want, err := h.RunSerial(cases[i].Job)
		if err != nil {
			t.Fatalf("job %d: serial reference: %v", i, err)
		}
		if err := SameCiphertext(got, want); err != nil {
			t.Fatalf("job %d: traced vs serial mismatch: %v", i, err)
		}
	}
	s.Drain()

	recorded, dropped := s.TraceCounts()
	if recorded == 0 {
		t.Fatal("tracing enabled but no spans recorded")
	}
	// Observability reads must not advance the simulated clock.
	before := s.Backend().SimulatedSeconds()
	_ = s.Metrics()
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if after := s.Backend().SimulatedSeconds(); after != before {
		t.Fatalf("observability reads advanced the simulated clock: %g -> %g", before, after)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("trace export is not valid JSON")
	}

	// The metrics mirrors must agree with the legacy Stats counters.
	st := s.Stats()
	m := s.Metrics()
	for _, chk := range []struct {
		name string
		want int64
	}{
		{"sched.jobs_completed", st.Jobs},
		{"sched.jobs_failed", st.Failed},
		{"sched.batches", st.Batches},
		{"sched.jobs_coalesced", st.Coalesced},
		{"sched.transfer_batches", st.TransferBatches},
		{"sched.bytes_h2d", st.BytesH2D},
		{"sched.bytes_d2h", st.BytesD2H},
		{"sched.fused_steps", st.FusedSteps},
		{"sched.unfused_steps", st.UnfusedSteps},
	} {
		in, ok := m.Get(chk.name)
		if !ok {
			t.Fatalf("metric %s missing", chk.name)
		}
		if int64(in.Value) != chk.want {
			t.Errorf("metric %s = %g, want %d (Stats mirror)", chk.name, in.Value, chk.want)
		}
	}
	// Every completed job was observed by the per-class histograms.
	var histCount int64
	for _, c := range s.classes {
		in, ok := m.Get("sched.service_seconds." + c.Name)
		if !ok {
			t.Fatalf("service-time histogram missing for class %s", c.Name)
		}
		histCount += in.Count
	}
	if histCount != st.Jobs {
		t.Errorf("service-time samples = %d, want %d", histCount, st.Jobs)
	}
	t.Logf("traced run: %d spans (%d dropped), %d jobs", recorded, dropped, st.Jobs)
}

// TestTraceDisabled pins the off state: no spans, no rings, WriteTrace
// refuses with ErrTraceDisabled, and Metrics still works (the registry
// is always on).
func TestTraceDisabled(t *testing.T) {
	h := sharedHarness(t)
	s := newScheduler(t, h, 2)
	c := h.RandomCase(rand.New(rand.NewSource(7)), 4)
	fut, err := s.Submit(c.Job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	s.Drain() // the future resolves before the worker accounts the job
	if rec, drop := s.TraceCounts(); rec != 0 || drop != 0 {
		t.Fatalf("tracing off but counts = (%d, %d)", rec, drop)
	}
	if err := s.WriteTrace(&bytes.Buffer{}); err != ErrTraceDisabled {
		t.Fatalf("WriteTrace = %v, want ErrTraceDisabled", err)
	}
	if in, ok := s.Metrics().Get("sched.jobs_completed"); !ok || in.Value < 1 {
		t.Fatalf("metrics registry must run with tracing off: %+v ok=%v", in, ok)
	}
}

// TestClusterStatsMerge is the regression test for the cluster Stats
// merge semantics: MaxBatch aggregates as the maximum (global and per
// class), and latency quantiles are recomputed over the union of the
// shards' samples — never averaged. The counters are injected
// white-box so the expected values are exact.
func TestClusterStatsMerge(t *testing.T) {
	h := sharedHarness(t)
	c := NewCluster(h.Params, []*gpu.Device{gpu.NewDevice1(), gpu.NewDevice1()},
		schedConfig(1), h.RelinKey(), h.GaloisKeys())
	defer c.Close()

	s0, s1 := c.all()[0].sched, c.all()[1].sched
	s0.statMu.Lock()
	s0.stats.MaxBatch = 3
	s0.classStat[0].MaxBatch = 3
	s0.classStat[0].Retried = 4
	for i := 0; i < 50; i++ {
		s0.latency[0].add(1.0)
	}
	s0.statMu.Unlock()
	s1.statMu.Lock()
	s1.stats.MaxBatch = 5
	s1.classStat[0].MaxBatch = 5
	s1.classStat[0].Retried = 3
	for i := 0; i < 50; i++ {
		s1.latency[0].add(3.0)
	}
	s1.statMu.Unlock()
	// The recovery-plane counters live on the cluster itself and flow
	// into the snapshot (and the metrics registry) verbatim.
	c.standbyCnt.Add(2)
	c.drainedCnt.Add(6)
	c.migratedCnt.Add(5)
	c.retryCnt.Add(7)

	st := c.Stats()
	if st.MaxBatch != 5 {
		t.Errorf("merged MaxBatch = %d, want max(3,5)=5 (not a sum)", st.MaxBatch)
	}
	if st.PerClass[0].MaxBatch != 5 {
		t.Errorf("merged per-class MaxBatch = %d, want 5", st.PerClass[0].MaxBatch)
	}
	// Union of 50x1.0 and 50x3.0: nearest-rank p50 = 1.0, p99 = 3.0.
	// Averaging the per-shard quantiles would report p99 = 2.0.
	if st.PerClass[0].P50 != 1.0 {
		t.Errorf("merged P50 = %g, want 1.0 (union quantile)", st.PerClass[0].P50)
	}
	if st.PerClass[0].P99 != 3.0 {
		t.Errorf("merged P99 = %g, want 3.0 (union quantile, not per-shard average)", st.PerClass[0].P99)
	}
	if st.PerClass[0].Retried != 7 {
		t.Errorf("merged per-class Retried = %d, want 4+3=7 (a sum, not a max)", st.PerClass[0].Retried)
	}
	if st.StandbyPromoted != 2 || st.Drained != 6 || st.Migrated != 5 || st.RetryAttempts != 7 {
		t.Errorf("recovery counters = (promoted %d, drained %d, migrated %d, retries %d), want (2, 6, 5, 7)",
			st.StandbyPromoted, st.Drained, st.Migrated, st.RetryAttempts)
	}
	for name, want := range map[string]float64{
		"cluster.standby_promotions": 2,
		"cluster.drained_jobs":       6,
		"cluster.migrated_residents": 5,
		"cluster.retry_attempts":     7,
	} {
		if in, ok := c.Metrics().Get(name); !ok || in.Value != want {
			t.Errorf("metrics instrument %s = %+v ok=%v, want value %g", name, in, ok, want)
		}
	}
}

// TestConcurrentStatsAndTraceSnapshots hammers the observability read
// paths while jobs are in flight: Stats, Metrics and WriteTrace from
// several goroutines against a traced scheduler under submission load.
// Every Stats snapshot must be internally consistent (Jobs equals the
// per-class Completed sum — both are updated under the same lock), and
// every trace export must be valid JSON. Run with -race.
func TestConcurrentStatsAndTraceSnapshots(t *testing.T) {
	h := sharedHarness(t)
	cfg := schedConfig(3)
	cfg.Trace = TraceConfig{Enabled: ToggleOn, SpanCap: 256}
	s := New(h.Params, gpu.NewDevice1(), cfg, h.RelinKey(), h.GaloisKeys())
	defer s.Close()

	rng := rand.New(rand.NewSource(31))
	const nJobs = 24
	jobs := make([]*Job, nJobs)
	for i := range jobs {
		jobs[i] = h.RandomCase(rng, 4).Job
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.Stats()
				var sum int64
				for _, pc := range st.PerClass {
					sum += pc.Completed
				}
				if st.Jobs != sum {
					t.Errorf("inconsistent snapshot: Jobs=%d, sum(PerClass.Completed)=%d", st.Jobs, sum)
					return
				}
				if _, ok := s.Metrics().Get("sched.jobs_completed"); !ok {
					t.Error("metrics snapshot missing jobs_completed")
					return
				}
				var buf bytes.Buffer
				if err := s.WriteTrace(&buf); err != nil {
					t.Errorf("WriteTrace: %v", err)
					return
				}
				if !json.Valid(buf.Bytes()) {
					t.Error("concurrent trace export is not valid JSON")
					return
				}
			}
		}()
	}
	var futs []*Future
	for _, job := range jobs {
		fut, err := s.Submit(job)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		futs = append(futs, fut)
	}
	for i, fut := range futs {
		if _, err := fut.Wait(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	if rec, _ := s.TraceCounts(); rec == 0 {
		t.Fatal("no spans recorded under concurrent load")
	}
}
