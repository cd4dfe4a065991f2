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

// batchShapes are the two shapes the matrix differentials run: the
// default (up to MaxBatch same-shape jobs share each launch sequence)
// and MaxBatch 1 (every job ships as a batch of one), so k >= 2 and
// k = 1 both keep differential coverage on the one execution path.
var batchShapes = []struct {
	name     string
	maxBatch int
}{{"default", 0}, {"maxbatch=1", 1}}

// checkPoolsReturned asserts the "pools returned" conservation law on
// a drained backend: no device buffer is checked out of the cache or
// pinned in it, and every staging slab a gathered transfer drew (a
// pool miss mints one) is back in the pool or was dropped by its
// retention bound.
func checkPoolsReturned(t testing.TB, when string, b *Backend) {
	t.Helper()
	if used, pinned := b.Cache().UsedCount(), b.Cache().PinnedCount(); used != 0 || pinned != 0 {
		t.Errorf("%s: cache has %d buffers checked out and %d pinned, want 0/0", when, used, pinned)
	}
	gets, reuses, discards := b.Staging().Stats()
	if out := gets - reuses - discards - int64(b.Staging().FreeCount()); out != 0 {
		t.Errorf("%s: %d staging slabs never came back to the pool", when, out)
	}
}

// newScheduler builds a standalone scheduler whose teardown asserts the
// conservation laws through the one Stats view: drained, every class
// has Submitted == Completed (failed and shard-lost jobs complete too),
// nothing is outstanding and the pools are back — checked before Close,
// which reclaims the cache by force, and again after it. No test built
// on this helper is exempt.
func newScheduler(t testing.TB, h *Harness, workers int) *Scheduler {
	t.Helper()
	return newSchedulerWith(t, h, schedConfig(workers))
}

// newSchedulerWith is newScheduler for a test that sets its own Config.
// Its teardown also checks, as newClusterWith does, that Close leaves
// no goroutine behind: the workers are the scheduler's only ones.
func newSchedulerWith(t testing.TB, h *Harness, cfg Config) *Scheduler {
	t.Helper()
	baseline := runtime.NumGoroutine()
	s := New(h.Params, gpu.NewDevice1(), cfg, h.RelinKey(), h.GaloisKeys())
	t.Cleanup(func() {
		s.Drain()
		for _, pc := range s.Stats().PerClass {
			if pc.Submitted != pc.Completed {
				t.Errorf("teardown: class %s submitted %d jobs and completed %d", pc.Name, pc.Submitted, pc.Completed)
			}
		}
		if n := s.Outstanding(); n != 0 {
			t.Errorf("teardown: %d jobs outstanding after Drain", n)
		}
		checkPoolsReturned(t, "teardown, before Close", s.Backend())
		s.Close()
		checkPoolsReturned(t, "teardown, after Close", s.Backend())
		checkGoroutines(t, baseline)
	})
	return s
}

// checkGoroutines waits up to five seconds for the goroutine count to
// fall back to baseline, the count before the scheduler or cluster
// under test was built, and fails the test if it does not.
func checkGoroutines(t testing.TB, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("teardown: %d goroutines after Close, %d before it was built", n, baseline)
	}
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

func TestSchedulerMatchesSerialSingleJob(t *testing.T) {
	h := sharedHarness(t)
	s := newScheduler(t, h, 2)

	vals := make([]complex128, h.Params.Slots())
	for i := range vals {
		vals[i] = complex(0.3, -0.1)
	}
	job := NewJob(h.Encrypt(vals), h.Encrypt(vals))
	r := job.MulRelinRescale(0, 1)
	job.Rotate(r, 1)

	fut, err := s.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	want, err := h.RunSerial(job)
	if err != nil {
		t.Fatal(err)
	}
	if err := SameCiphertext(got, want); err != nil {
		t.Fatalf("concurrent result diverges from serial path: %v", err)
	}
	wantPT := make([]complex128, len(vals))
	for i := range wantPT {
		wantPT[i] = vals[(i+1)%len(vals)] * vals[(i+1)%len(vals)]
	}
	if e := MaxSlotError(h.Decrypt(got), wantPT); e > 1e-3 {
		t.Fatalf("slot error %g vs plaintext model", e)
	}
}

func TestSchedulerDrainAndStats(t *testing.T) {
	h := sharedHarness(t)
	s := newScheduler(t, h, 2)
	vals := make([]complex128, h.Params.Slots())
	const jobs = 12
	futs := make([]*Future, jobs)
	for i := range futs {
		j := NewJob(h.Encrypt(vals))
		j.SquareRelinRescale(0)
		var err error
		futs[i], err = s.Submit(j)
		if err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
	for i, f := range futs {
		select {
		case <-f.Done():
		default:
			t.Fatalf("job %d not done after Drain", i)
		}
	}
	st := s.Stats()
	if st.Jobs != jobs || st.Failed != 0 {
		t.Fatalf("stats = %d jobs / %d failed, want %d/0", st.Jobs, st.Failed, jobs)
	}
	var sum int64
	for _, n := range st.PerWorker {
		sum += n
	}
	if sum != jobs {
		t.Fatalf("per-worker counts sum to %d, want %d", sum, jobs)
	}
	if st.Batches == 0 || st.Batches > jobs {
		t.Fatalf("batches = %d, want 1..%d", st.Batches, jobs)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	h := sharedHarness(t)
	s := New(h.Params, gpu.NewDevice1(), schedConfig(1), h.RelinKey(), h.GaloisKeys())
	s.Close()
	s.Close() // idempotent
	j := NewJob(h.Encrypt(make([]complex128, h.Params.Slots())))
	j.Add(0, 0)
	if _, err := s.Submit(j); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

// TestBackpressureTinyQueues floods a 1-worker scheduler with minimal
// queue depth: Submit must block rather than drop or deadlock, and all
// jobs must complete.
func TestBackpressureTinyQueues(t *testing.T) {
	h := sharedHarness(t)
	cfg := schedConfig(1)
	cfg.QueueDepth = 1
	cfg.MaxBatch = 1
	s := newSchedulerWith(t, h, cfg)
	vals := make([]complex128, h.Params.Slots())
	const jobs = 10
	for i := 0; i < jobs; i++ {
		j := NewJob(h.Encrypt(vals))
		j.SquareRelinRescale(0)
		if _, err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
	if st := s.Stats(); st.Jobs != jobs || st.MaxBatch != 1 {
		t.Fatalf("stats = %+v, want %d jobs with MaxBatch 1", st, jobs)
	}
}

// holdFirstBatch parks s's workers at their first batch until the
// returned release is called, so jobs submitted meanwhile pile up
// behind it whatever the host's speed: the dispatcher ships at most
// QueueDepth+2 batches ahead of a held worker (its channel, the batch
// in hand and one prefetched), and everything past those is still
// queued, to be coalesced, when the worker resumes. Call it before the
// first Submit.
func holdFirstBatch(s *Scheduler) (release func()) {
	gate := make(chan struct{})
	s.onBatch = func() { <-gate }
	return func() { close(gate) }
}

// TestBatchingCoalescesSameShape verifies that under load, same-shape
// jobs are coalesced into batches. The dispatcher batches whatever has
// accumulated, so the backlog behind a single held worker must
// coalesce.
func TestBatchingCoalescesSameShape(t *testing.T) {
	h := sharedHarness(t)
	vals := make([]complex128, h.Params.Slots())
	s := newScheduler(t, h, 1)
	release := holdFirstBatch(s)
	const jobs = 24
	for i := 0; i < jobs; i++ {
		j := NewJob(h.Encrypt(vals))
		j.SquareRelinRescale(0)
		if _, err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	release()
	s.Drain()
	st := s.Stats()
	if st.Jobs != jobs {
		t.Fatalf("jobs = %d, want %d", st.Jobs, jobs)
	}
	if st.Coalesced == 0 || st.MaxBatch < 2 || st.Batches >= jobs {
		t.Fatalf("no coalescing of %d same-shape jobs behind a held worker: %d batches, %d coalesced, max batch %d",
			jobs, st.Batches, st.Coalesced, st.MaxBatch)
	}
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
