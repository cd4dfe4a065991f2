package sched

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xehe/internal/gpu"
	"xehe/internal/qos"
)

// shards describes one host-local shard per device model, each on its
// own node (failure domain = shard index).
func shards(devs ...gpu.DeviceSpec) []ShardSpec {
	specs := make([]ShardSpec, len(devs))
	for i, dev := range devs {
		specs[i] = ShardSpec{Device: dev, Node: i}
	}
	return specs
}

// newTestCluster builds a cluster over the given devices with the same
// core config as the serial reference context, so differential
// comparisons run identical kernels.
func newTestCluster(t testing.TB, h *Harness, workers int, devs ...gpu.DeviceSpec) *Cluster {
	t.Helper()
	return newClusterWith(t, h, shards(devs...), schedConfig(workers))
}

// newClusterWith builds a cluster (keys from h) whose teardown asserts
// the conservation laws: drained, the counters reconcile cluster-wide
// and across shards (checkInvariants) and the router shed nothing — no
// test built on this helper sheds through the router on purpose, so a
// shed it saw has already failed it — nothing is outstanding, every
// shard (a fail-stopped one too) has its pools back, checked before
// Close, which reclaims the caches by force, and again after it, and
// after Close the goroutine count is back to what it was before the
// cluster was built: the control loop, its builds and every shard's
// workers are gone.
func newClusterWith(t testing.TB, h *Harness, specs []ShardSpec, cfg Config) *Cluster {
	t.Helper()
	baseline := ownGoroutines()
	c := NewCluster(h.Params, specs, cfg, h.RelinKey(), h.GaloisKeys())
	t.Cleanup(func() {
		c.Drain()
		st := c.Stats()
		checkInvariants(t, st)
		for _, pc := range st.PerClass {
			if pc.Rejected != 0 {
				t.Errorf("teardown: class %s shed %d jobs", pc.Name, pc.Rejected)
			}
		}
		pools := func(when string) {
			for i, sh := range c.all() {
				checkPoolsReturned(t, fmt.Sprintf("teardown, %s: shard %d", when, i), sh.Cache())
			}
		}
		for i, sh := range c.all() {
			if n := sh.Outstanding(); n != 0 {
				t.Errorf("teardown: shard %d has %d jobs outstanding after Drain", i, n)
			}
		}
		pools("before Close")
		c.Close()
		pools("after Close")
		checkGoroutines(t, baseline)
	})
	return c
}

// pickWeighted is Cluster.pick's decision for a bulk-class job: the
// open shard of least routeCost over outstanding job counts.
func pickWeighted(loads []int64, weights []float64, open []bool) int {
	return leastLoaded(len(loads), func(i int) (float64, bool) {
		return routeCost(float64(loads[i]), 1, weights[i]), open[i]
	})
}

// TestPickWeightedProportional pins the routing policy deterministically:
// a 2:1 throughput-weighted pair under a uniform arrival stream (load
// increments on pick, no completions) must receive jobs in ~2:1
// proportion.
func TestPickWeightedProportional(t *testing.T) {
	weights := []float64{2, 1}
	loads := []int64{0, 0}
	open := []bool{true, true}
	counts := []int64{0, 0}
	const n = 300
	for i := 0; i < n; i++ {
		k := pickWeighted(loads, weights, open)
		if k < 0 {
			t.Fatalf("pick %d returned -1 with open shards", i)
		}
		loads[k]++
		counts[k]++
	}
	// Exact steady state is 200/100; allow a small transient margin.
	if counts[0] < 190 || counts[0] > 210 {
		t.Fatalf("2:1 weighted pair split %v over %d picks, want ~2:1", counts, n)
	}
	if counts[0]+counts[1] != n {
		t.Fatalf("counts %v do not sum to %d", counts, n)
	}
}

// TestPickWeightedSkipsClosed pins that the policy never targets a
// closed shard, even when it is idle and fast, and reports -1 only
// when everything is closed.
func TestPickWeightedSkipsClosed(t *testing.T) {
	weights := []float64{10, 1, 1}
	loads := []int64{0, 50, 60}
	open := []bool{false, true, true}
	for i := 0; i < 100; i++ {
		k := pickWeighted(loads, weights, open)
		if k == 0 {
			t.Fatal("picked the closed shard")
		}
		loads[k]++
	}
	if k := pickWeighted(loads, weights, []bool{false, false, false}); k != -1 {
		t.Fatalf("pick over all-closed shards = %d, want -1", k)
	}
}

// TestClusterNeverRoutesToClosedShard closes one shard mid-stream and
// verifies the router stops sending work there while the cluster keeps
// serving.
func TestClusterNeverRoutesToClosedShard(t *testing.T) {
	h := sharedHarness(t)
	c := newTestCluster(t, h, 1, gpu.Device1Spec(), gpu.Device1Spec())
	vals := make([]complex128, h.Params.Slots())

	submit := func(n int) {
		for i := 0; i < n; i++ {
			j := NewJob(h.Encrypt(vals))
			j.SquareRelinRescale(0)
			if _, err := c.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(6)
	c.Drain()
	c.CloseShard(0)
	before := c.Stats().Routed[0]
	submit(8)
	c.Drain()
	st := c.Stats()
	if st.Routed[0] != before {
		t.Fatalf("closed shard 0 received %d more jobs", st.Routed[0]-before)
	}
	if st.Jobs != 14 || st.Failed != 0 {
		t.Fatalf("stats = %d jobs / %d failed, want 14/0", st.Jobs, st.Failed)
	}

	c.CloseShard(1)
	j := NewJob(h.Encrypt(vals))
	j.SquareRelinRescale(0)
	if _, err := c.Submit(j); err != ErrNoShards {
		t.Fatalf("Submit with all shards closed = %v, want ErrNoShards", err)
	}
}

// TestClusterSubmitAfterClose is the regression for the shard-failure
// satellite: Close must be idempotent (including concurrently) and
// Submit afterwards must return an error, never panic.
func TestClusterSubmitAfterClose(t *testing.T) {
	h := sharedHarness(t)
	c := newTestCluster(t, h, 1, gpu.Device1Spec(), gpu.Device2Spec())
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); c.Close() }()
	}
	wg.Wait()
	j := NewJob(h.Encrypt(make([]complex128, h.Params.Slots())))
	j.Add(0, 0)
	if _, err := c.Submit(j); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

// TestJobFailureSurfacesWithoutWedging forces a runtime failure inside
// a worker (a structurally valid rotation whose Galois key is broken,
// which panics in the key-switch kernel) and verifies the shard-failure
// contract: the error surfaces through that job's Future.Wait with a
// descriptive message, healthy jobs racing alongside still succeed,
// and Drain/Close complete instead of wedging.
func TestJobFailureSurfacesWithoutWedging(t *testing.T) {
	h := brokenKeys(sharedHarness(t))
	s := newScheduler(t, h, 2)

	vals := make([]complex128, h.Params.Slots())
	bad := NewJob(h.Encrypt(vals))
	bad.Rotate(0, brokenRotation)
	good := NewJob(h.Encrypt(vals))
	good.SquareRelinRescale(0)

	badFut, err := s.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	goodFut, err := s.Submit(good)
	if err != nil {
		t.Fatal(err)
	}

	s.Drain() // must not wedge on the failed job
	if _, err := goodFut.Wait(); err != nil {
		t.Fatalf("healthy job failed: %v", err)
	}
	_, err = badFut.Wait()
	if err == nil {
		t.Fatal("broken-key job reported success")
	}
	for _, want := range []string{"op 0", "Rotate", "panicked"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q not descriptive: missing %q", err, want)
		}
	}
	if st := shardStats(s); st.Failed != 1 || st.Jobs != 2 {
		t.Fatalf("stats = %d jobs / %d failed, want 2/1", st.Jobs, st.Failed)
	}

	s.Close() // must not wedge either, and must reclaim stranded buffers
	if _, err := s.Submit(good); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

// TestWarmBuffersPreloadsPool pins the WarmBuffers knob: the free pool
// holds the configured working set right after construction, the warm
// allocations stay out of the hit/miss stats, and a subsequent job run
// is served entirely from the pool (zero cache misses).
func TestWarmBuffersPreloadsPool(t *testing.T) {
	h := sharedHarness(t)
	cfg := schedConfig(2)
	cfg.WarmBuffers = 64 // above the 2-worker working set of this job mix
	s := newSchedulerWith(t, h, gpu.Device1Spec(), cfg)

	cache := s.Cache()
	if n := cache.FreeCount(); n != 64 {
		t.Fatalf("free pool holds %d buffers after construction, want 64", n)
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("warming polluted stats: %d hits / %d misses", hits, misses)
	}

	vals := make([]complex128, h.Params.Slots())
	for i := 0; i < 4; i++ {
		j := NewJob(h.Encrypt(vals), h.Encrypt(vals))
		r := j.MulRelinRescale(0, 1)
		j.Rotate(r, 1)
		if _, err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
	hits, misses := cache.Stats()
	if misses != 0 {
		t.Fatalf("%d cache misses with a pre-warmed pool (hits %d); working-set size regressed", misses, hits)
	}
	if hits == 0 {
		t.Fatal("no cache traffic recorded; jobs did not run through the pool")
	}
}

// TestCloseShardReroutesBacklogUnderRace is the CloseShard race
// regression: submissions race with CloseShard on the targeted shard,
// and every accepted job must complete bit-correct — queued jobs on
// the closing shard are re-routed (or drained locally), never lost,
// and no Future ever wedges.
func TestCloseShardReroutesBacklogUnderRace(t *testing.T) {
	h := sharedHarness(t)
	cfg := schedConfig(1)
	cfg.MaxBatch = 2
	cfg.PendingCap = 64
	c := newClusterWith(t, h, shards(gpu.Device1Spec(), gpu.Device1Spec()), cfg)

	vals := make([]complex128, h.Params.Slots())
	job := NewJob(h.Encrypt(vals))
	job.SquareRelinRescale(0)
	want, err := h.RunSerial(job)
	if err != nil {
		t.Fatal(err)
	}

	const jobs = 48
	futs := make([]*Future, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := g; i < jobs; i += 4 {
				futs[i], errs[i] = c.Submit(job)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		c.CloseShard(0) // races with the submitters
	}()
	close(start)
	wg.Wait()

	accepted := 0
	for i := range futs {
		if errs[i] != nil {
			// ErrNoShards can only appear if shard 1 also vanished;
			// with one CloseShard it must never happen.
			if errs[i] == ErrNoShards || errs[i] == ErrClosed {
				t.Fatalf("job %d: submit: %v", i, errs[i])
			}
			continue
		}
		accepted++
		got, err := futs[i].Wait() // must not wedge
		if err != nil {
			t.Fatalf("accepted job %d failed: %v", i, err)
		}
		if err := SameCiphertext(got, want); err != nil {
			t.Fatalf("job %d: result diverges after CloseShard: %v", i, err)
		}
	}
	if accepted != jobs {
		t.Fatalf("only %d of %d jobs accepted; the open shard must absorb the stream", accepted, jobs)
	}
	st := c.Stats()
	if st.Jobs != int64(jobs) || st.Failed != 0 {
		t.Fatalf("stats = %d jobs / %d failed, want %d/0 (accepted jobs lost in CloseShard)", st.Jobs, st.Failed, jobs)
	}
	// The cluster must still serve with one shard.
	fut, err := c.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fut.Wait(); err != nil {
		t.Fatal(err)
	} else if err := SameCiphertext(got, want); err != nil {
		t.Fatal(err)
	}
}

// TestClusterRejectsOutOfRangeClass pins that an invalid class — in
// either direction — surfaces as a validation error through the
// cluster router instead of panicking in the routing path.
func TestClusterRejectsOutOfRangeClass(t *testing.T) {
	h := sharedHarness(t)
	c := newTestCluster(t, h, 1, gpu.Device1Spec())
	vals := make([]complex128, h.Params.Slots())
	for _, class := range []qos.ClassID{-1, 99} {
		j := NewJob(h.Encrypt(vals)).WithClass(class)
		j.SquareRelinRescale(0)
		if _, err := c.Submit(j); err == nil || !strings.Contains(err.Error(), "class") {
			t.Fatalf("class %d: Submit = %v, want class-range error", class, err)
		}
	}
}
