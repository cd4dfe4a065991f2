package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"xehe/internal/gpu"
	"xehe/internal/obs"
	"xehe/internal/sycl"
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
	cfg.Trace = TraceConfig{Enabled: true}
	s := newSchedulerWith(t, h, gpu.Device1Spec(), cfg)

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
	before := s.Device().SimulatedSeconds()
	_ = s.Metrics()
	var buf bytes.Buffer
	if err := s.c.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if after := s.Device().SimulatedSeconds(); after != before {
		t.Fatalf("observability reads advanced the simulated clock: %g -> %g", before, after)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("trace export is not valid JSON")
	}

	st := shardStats(s)
	m := s.Metrics()
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
	if err := s.c.WriteTrace(&bytes.Buffer{}); err != ErrTraceDisabled {
		t.Fatalf("WriteTrace = %v, want ErrTraceDisabled", err)
	}
	if in, ok := s.Metrics().Get("sched.jobs_completed"); !ok || in.Value < 1 {
		t.Fatalf("metrics registry must run with tracing off: %+v ok=%v", in, ok)
	}
}

// TestClusterStatsMerge is the regression test for the cluster Stats
// merge semantics: MaxBatch aggregates as the maximum (global and per
// class), and latency quantiles are recomputed over the union of the
// shards' samples — never averaged. The values are injected white-box
// through the instruments so the expected values are exact.
func TestClusterStatsMerge(t *testing.T) {
	h := sharedHarness(t)
	c := newTestCluster(t, h, 1, gpu.Device1Spec(), gpu.Device1Spec())

	s0, s1 := c.all()[0].sched, c.all()[1].sched
	for _, inj := range []struct {
		s                 *Scheduler
		maxBatch, retried int64
		lat               float64
	}{{s0, 3, 4, 1.0}, {s1, 5, 3, 3.0}} {
		inj.s.met.class[0].maxBatch.Observe(inj.maxBatch)
		inj.s.met.class[0].retried.Add(inj.retried)
		inj.s.latMu.Lock()
		for i := 0; i < 50; i++ {
			inj.s.latency[0].add(inj.lat)
		}
		inj.s.latMu.Unlock()
	}
	// The recovery-plane counters live on the cluster itself and flow
	// into the snapshot (and the metrics registry) verbatim; the retry
	// total is the sum of the shards' per-class attempts.
	c.standbyCnt.Add(2)
	c.drainedCnt.Add(6)
	c.migratedCnt.Add(5)

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
// per-class Completed sum — the total is derived from the per-class
// counters of the same snapshot), every trace export must be valid
// JSON, and the dropped-span gauge must not double count however many
// snapshots raced. Run with -race.
func TestConcurrentStatsAndTraceSnapshots(t *testing.T) {
	h := sharedHarness(t)
	cfg := schedConfig(3)
	cfg.Trace = TraceConfig{Enabled: true, SpanCap: 16} // small rings: spans must drop
	s := newSchedulerWith(t, h, gpu.Device1Spec(), cfg)

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
				st := shardStats(s)
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
				if err := s.c.WriteTrace(&buf); err != nil {
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

	// A worker records its last settle span after the futures resolve, so
	// the gauge is bracketed by two reads of the rings' own count; once
	// the workers are quiet all three are equal.
	rec, before := s.TraceCounts()
	in, _ := s.Metrics().Get("trace.spans_dropped")
	_, after := s.TraceCounts()
	if rec == 0 {
		t.Fatal("no spans recorded under concurrent load")
	}
	if before == 0 {
		t.Fatal("no spans dropped: the rings are too large for this test to say anything about the drop count")
	}
	if got := int64(in.Value); got < before || got > after {
		t.Errorf("trace.spans_dropped = %d after concurrent snapshots, TraceCounts dropped = %d..%d", got, before, after)
	}
}

// TestStatsViewCoversEveryField pins the view against the ledger: every
// counter and maximum of a two-shard cluster's registries (found by
// name in their snapshots, so a new instrument is included without
// editing this) is set to a distinct non-zero value, the cache gauges
// and latency windows are driven to distinct values, and every numeric
// field of Stats, ClassStats and ClusterStats must then read non-zero
// and differ from every other — a field added without a source reads 0
// here, and two fields reading one instrument collide. Three fields are
// not sums, so a value of theirs may recur under the same name: a
// maximum (MaxBatch) and a quantile (P50, P99) equal one of the values
// they were taken over, and the cluster's PerWorker concatenates the
// shards'.
func TestStatsViewCoversEveryField(t *testing.T) {
	h := sharedHarness(t)
	c := NewCluster(h.Params, shards(gpu.Device1Spec(), gpu.Device1Spec()),
		schedConfig(2), h.RelinKey(), h.GaloisKeys())
	defer c.Close()

	rng := rand.New(rand.NewSource(21))
	next := func() int64 { return 1e6 + rng.Int63n(1e9) }
	fill := func(reg *obs.Registry) {
		for _, in := range reg.Snapshot().Instruments {
			switch in.Kind {
			case "counter":
				reg.Counter(in.Name).Add(next())
			case "max":
				reg.Max(in.Name).Observe(next())
			}
		}
	}
	fill(c.obsReg)
	for i, sh := range c.all() {
		fill(sh.sched.met.reg)
		// i+1 misses, then 2i+5 hits: distinct per shard and in total.
		cache := sh.sched.cache
		bufs := make([]*sycl.Buffer, i+1)
		for j := range bufs {
			bufs[j] = cache.Malloc(64)
		}
		for _, b := range bufs {
			cache.Free(b)
		}
		for j := 0; j < 2*i+5; j++ {
			cache.Free(cache.Malloc(64))
		}
		// Three samples per class: P50 is the middle one, P99 the largest,
		// and the union's P50 is a sample neither shard reports.
		sh.sched.latMu.Lock()
		for k := range sh.sched.latency {
			unit := math.Pow(100, float64(k)) / 8
			for _, v := range []float64{1, 2, 10} {
				sh.sched.latency[k].add((v + 2*float64(i)) * unit)
			}
		}
		sh.sched.latMu.Unlock()
	}

	type leaf struct{ path, field string }
	seen := map[float64]leaf{}
	repeats := map[string]bool{"MaxBatch": true, "P50": true, "P99": true, "PerWorker": true}
	var walk func(v reflect.Value, path, field string)
	walk = func(v reflect.Value, path, field string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				walk(v.Field(i), path+"."+f.Name, f.Name)
			}
		case reflect.Slice:
			if v.Len() == 0 {
				t.Errorf("%s is empty", path)
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i), field)
			}
		case reflect.Int, reflect.Int64, reflect.Float64:
			x := v.Convert(reflect.TypeOf(float64(0))).Float()
			if x == 0 {
				t.Errorf("%s = 0: the view has no source for it", path)
				return
			}
			if prev, dup := seen[x]; dup && !(prev.field == field && repeats[field]) {
				t.Errorf("%s = %s = %g: two fields read one source", path, prev.path, x)
			}
			seen[x] = leaf{path, field}
		}
	}
	walk(reflect.ValueOf(c.Stats()), "ClusterStats", "")
	if len(seen) < 100 {
		t.Fatalf("walked only %d distinct values: the reflection walk is not reaching the fields", len(seen))
	}
}
