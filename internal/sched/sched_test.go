package sched

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"xehe/internal/ckks"
	"xehe/internal/core"
	"xehe/internal/gpu"
	"xehe/internal/memcache"
	"xehe/internal/qos"
)

// testHarness is shared across the package tests: key generation at
// N=4096 is the expensive part, the harness itself is tiny.
var (
	harnessOnce sync.Once
	harness     *Harness
)

func sharedHarness(t testing.TB) *Harness {
	t.Helper()
	harnessOnce.Do(func() {
		harness = NewHarness(ckks.TestParameters(), 7, 1, 2, -1)
	})
	return harness
}

// schedConfig mirrors the serial reference context's core config so the
// differential comparison runs both paths through identical kernels.
func schedConfig(workers int) Config {
	cfg := core.OptNTTAsm()
	cfg.MemCache = true
	return Config{Workers: workers, Core: cfg}
}

// checkPoolsReturned asserts the "pools returned" conservation law on
// a drained scheduler's cache: no device buffer is checked out of it or
// pinned in it.
func checkPoolsReturned(t testing.TB, when string, cache *memcache.Cache) {
	t.Helper()
	if used, pinned := cache.UsedCount(), cache.PinnedCount(); used != 0 || pinned != 0 {
		t.Errorf("%s: cache has %d buffers checked out and %d pinned, want 0/0", when, used, pinned)
	}
}

// newScheduler builds a Device1 scheduler through newSchedulerWith.
func newScheduler(t testing.TB, h *Harness, workers int) *Scheduler {
	t.Helper()
	return newSchedulerWith(t, h, gpu.Device1Spec(), schedConfig(workers))
}

// newSchedulerWith builds a one-shard cluster on dev with h's keys
// (brokenKeys for a test that needs a failing rotation) through
// newClusterWith, whose teardown asserts the conservation laws, and
// returns the shard's scheduler: a test that submits to it directly
// bypasses only the router. No test built on this helper is exempt
// from the teardown.
func newSchedulerWith(t testing.TB, h *Harness, dev gpu.DeviceSpec, cfg Config) *Scheduler {
	t.Helper()
	return newClusterWith(t, h, shards(dev), cfg).all()[0]
}

// shardStats is the typed view of one shard's own metrics snapshot, as
// Cluster.Stats builds PerShard.
func shardStats(s *Scheduler) Stats {
	return statsView(s.Metrics().Values(), s.classes, s.classLatencies())
}

// checkInvariants asserts what every drained view must reconcile: each
// class completed every job it admitted (failed and shard-lost jobs
// complete too); Jobs, Failed, Batches, Coalesced and TransferBatches
// are the sums of their per-class parts and MaxBatch the maximum;
// Σ PerClass.Retried == RetryAttempts; Σ PerWorker == Jobs when nothing
// failed (a job failed before it ran never reached a worker); and on a
// cluster Σ PerShard.Jobs == Jobs and Σ PerShard.TransferBatches ==
// TransferBatches.
func checkInvariants(t testing.TB, st ClusterStats) {
	t.Helper()
	var sum ClassStats
	for _, pc := range st.PerClass {
		if pc.Submitted != pc.Completed || pc.Failed > pc.Completed {
			t.Errorf("teardown: class %s submitted %d jobs, completed %d, failed %d", pc.Name, pc.Submitted, pc.Completed, pc.Failed)
		}
		sum.Completed += pc.Completed
		sum.Failed += pc.Failed
		sum.Batches += pc.Batches
		sum.Coalesced += pc.Coalesced
		sum.TransferBatches += pc.TransferBatches
		sum.Retried += pc.Retried
		sum.MaxBatch = max(sum.MaxBatch, pc.MaxBatch)
	}
	var workers int64
	for _, n := range st.PerWorker {
		workers += n
	}
	var shards Stats
	for _, ps := range st.PerShard {
		shards.Jobs += ps.Jobs
		shards.TransferBatches += ps.TransferBatches
	}
	cluster := st.PerShard != nil
	for _, c := range []struct {
		what      string
		got, want int64
		applies   bool
	}{
		{"Σ PerClass.Completed vs Jobs", sum.Completed, st.Jobs, true},
		{"Σ PerClass.Failed vs Failed", sum.Failed, st.Failed, true},
		{"Σ PerClass.Batches vs Batches", sum.Batches, st.Batches, true},
		{"Σ PerClass.Coalesced vs Coalesced", sum.Coalesced, st.Coalesced, true},
		{"max PerClass.MaxBatch vs MaxBatch", int64(sum.MaxBatch), int64(st.MaxBatch), true},
		{"Σ PerClass.TransferBatches vs TransferBatches", sum.TransferBatches, st.TransferBatches, true},
		{"Σ PerClass.Retried vs RetryAttempts", sum.Retried, st.RetryAttempts, true},
		{"Σ PerWorker vs Jobs", workers, st.Jobs, st.Failed == 0},
		{"Σ PerShard.Jobs vs Jobs", shards.Jobs, st.Jobs, cluster},
		{"Σ PerShard.TransferBatches vs TransferBatches", shards.TransferBatches, st.TransferBatches, cluster},
	} {
		if c.applies && c.got != c.want {
			t.Errorf("teardown: %s: %d, want %d", c.what, c.got, c.want)
		}
	}
}

// checkGoroutines waits up to five seconds for the count of the
// module's goroutines (ownGoroutines) to fall back to baseline, the
// count before the scheduler or cluster under test was built, and fails
// the test if it does not.
func checkGoroutines(t testing.TB, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for ownGoroutines() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := ownGoroutines(); n > baseline {
		t.Errorf("teardown: %d goroutines after Close, %d before it was built", n, baseline)
	}
}

// ownGoroutines counts the goroutines with this module's code on their
// stack. Goroutines the standard library starts for the test binary —
// the fuzzing engine's os/signal loop, which outlives a fuzz target's
// scheduler — are not the scheduler's to stop.
func ownGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	own := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "xehe/") {
			own++
		}
	}
	return own
}

func TestJobValidate(t *testing.T) {
	h := sharedHarness(t)
	p := h.Params
	in := h.Encrypt(make([]complex128, p.Slots()))
	low := h.Encrypt(make([]complex128, p.Slots()))
	low.Level = 0 // pretend: level-0 input (structurally fine, blocks rescale)

	cases := []struct {
		name string
		job  *Job
		want string // substring of the error; empty = valid
	}{
		{"valid chain", func() *Job {
			j := NewJob(in, in)
			r := j.MulRelinRescale(0, 1)
			j.Rotate(r, 1)
			return j
		}(), ""},
		{"no inputs", &Job{Ops: []Op{{Code: OpAdd}}}, "no inputs"},
		{"no ops", NewJob(in), "no ops"},
		{"operand out of range", func() *Job {
			j := NewJob(in)
			j.Add(0, 3)
			return j
		}(), "out of range"},
		{"level mismatch", func() *Job {
			j := NewJob(in, in)
			r := j.MulRelinRescale(0, 1) // level drops
			j.Add(r, 0)
			return j
		}(), "level mismatch"},
		{"add scale mismatch", func() *Job {
			j := NewJob(in, in)
			r := j.MulRelin(0, 1) // scale squares, level unchanged
			j.Add(r, 0)
			return j
		}(), "scale mismatch"},
		{"rescale at level 0", func() *Job {
			j := NewJob(low)
			j.SquareRelinRescale(0)
			return j
		}(), "level 0"},
		{"tampered level vs components", func() *Job {
			bad := h.Encrypt(make([]complex128, p.Slots()))
			bad.Value = bad.Value[:2]
			bad.Level = p.MaxLevel() // fine so far; now shrink the polys
			for _, pv := range bad.Value {
				pv.Coeffs = pv.Coeffs[:1] // 1 RNS component, level demands MaxLevel+1
			}
			j := NewJob(bad)
			j.Add(0, 0)
			return j
		}(), "RNS components"},
	}
	for _, tc := range cases {
		err := tc.job.Validate(p)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestSubmitRejectsMissingGaloisKey(t *testing.T) {
	h := sharedHarness(t)
	s := newScheduler(t, h, 1)
	j := NewJob(h.Encrypt(make([]complex128, h.Params.Slots())))
	j.Rotate(0, 7) // harness only has keys for 1 and 2
	if _, err := s.Submit(j); err == nil || !strings.Contains(err.Error(), "Galois key") {
		t.Fatalf("Submit = %v, want missing-Galois-key error", err)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	h := sharedHarness(t)
	s := newScheduler(t, h, 1)
	s.Close()
	s.Close() // idempotent
	j := NewJob(h.Encrypt(make([]complex128, h.Params.Slots())))
	j.Add(0, 0)
	if _, err := s.Submit(j); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

// holdFirstBatch parks s's workers at their first batch until the
// returned release is called, so jobs submitted meanwhile pile up in
// the class queues whatever the host's speed: a batch is cut only when
// a worker pulls it, and a held worker pulls nothing, so everything
// submitted after the parks is still queued, to be coalesced, when the
// workers resume. parked yields one token per worker that parks. A
// worker parks after its prefetch, so if each worker is given one job
// and the next job waits for its token, every worker holds exactly that
// job, has prefetched nothing, and every later batch is fixed by what
// is submitted before release. Call it before the first Submit; release
// may be called again (deferred, say) and does nothing then.
func holdFirstBatch(s *Scheduler) (parked <-chan struct{}, release func()) {
	// Room for a token per worker, so no park waits on the reader; once
	// unread tokens fill it, later batches send none.
	gate, park := make(chan struct{}), make(chan struct{}, len(s.workers))
	var releaseOnce sync.Once
	s.onBatch = func() {
		select {
		case park <- struct{}{}:
		default:
		}
		<-gate
	}
	return park, func() { releaseOnce.Do(func() { close(gate) }) }
}

// TestShapeKeyDistinguishesChains pins the batching key: same chains
// coincide, different levels or ops do not.
func TestShapeKeyDistinguishesChains(t *testing.T) {
	h := sharedHarness(t)
	vals := make([]complex128, h.Params.Slots())
	mk := func(build func(j *Job)) *Job {
		j := NewJob(h.Encrypt(vals))
		build(j)
		return j
	}
	a := mk(func(j *Job) { j.SquareRelinRescale(0) })
	b := mk(func(j *Job) { j.SquareRelinRescale(0) })
	c := mk(func(j *Job) { j.Rotate(0, 1) })
	if a.ShapeKey() != b.ShapeKey() {
		t.Error("identical chains must share a shape key")
	}
	if a.ShapeKey() == c.ShapeKey() {
		t.Error("different ops must not share a shape key")
	}
	d := mk(func(j *Job) { j.SquareRelinRescale(0) })
	d.Inputs[0].Level-- // same ops, lower level
	if a.ShapeKey() == d.ShapeKey() {
		t.Error("different input levels must not share a shape key")
	}
}

// TestTaskDetachAttach pins the one stamp conversion every exit from a
// shard goes through: the wait a task has already served and the budget
// it has left — an overdrawn one included — survive a hop between two
// clocks that read different times (the receiver's may be behind), and
// a job without a deadline stays without one.
func TestTaskDetachAttach(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		enq, deadline, src, dst float64
		wait, budget            float64
	}{
		{"budget left", 10, 15, 12, 100, 2, 3},
		{"deadline already missed", 10, 11, 12, 100, 2, -1},
		{"receiver clock behind", 10, 11.5, 12, 0.25, 2, -0.5},
		{"no deadline", 10, qos.NoDeadline(), 12, 100, 2, math.Inf(1)},
	} {
		tk := &task{enq: tc.enq, deadline: tc.deadline}
		tk.detach(tc.src)
		if tk.enq != tc.wait || tk.deadline != tc.budget {
			t.Errorf("%s: detached = (wait %v, budget %v), want (%v, %v)", tc.name, tk.enq, tk.deadline, tc.wait, tc.budget)
		}
		tk.attach(tc.dst)
		if got := tc.dst - tk.enq; got != tc.wait {
			t.Errorf("%s: wait served on the receiving clock = %v, want %v", tc.name, got, tc.wait)
		}
		if got := tk.deadline - tc.dst; got != tc.budget {
			t.Errorf("%s: budget left on the receiving clock = %v, want %v", tc.name, got, tc.budget)
		}
		// The same reading both ways is the identity (offerRetry's decline).
		tk.detach(tc.dst)
		tk.attach(tc.dst)
		if tc.dst-tk.enq != tc.wait || tk.deadline-tc.dst != tc.budget {
			t.Errorf("%s: detach+attach on one reading moved the stamps", tc.name)
		}
	}
}
