package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"xehe/internal/gpu"
	"xehe/internal/qos"
)

// qosConfig builds a scheduler config with an explicit class table
// and policy on the differential core config.
func qosConfig(workers int, classes []qos.Class, policy qos.Factory) Config {
	cfg := schedConfig(workers)
	cfg.Classes = classes
	cfg.Policy = policy
	return cfg
}

// squareJob is the standard one-op test job.
func squareJob(h *Harness) *Job {
	j := NewJob(h.Encrypt(make([]complex128, h.Params.Slots())))
	j.SquareRelinRescale(0)
	return j
}

// squareJobs pre-builds n test jobs: encryption costs about as much
// host time as execution, so ordering tests must encrypt up front to
// submit a burst that actually forms a backlog.
func squareJobs(h *Harness, n int) []*Job {
	jobs := make([]*Job, n)
	for i := range jobs {
		jobs[i] = squareJob(h)
	}
	return jobs
}

// TestSubmitRejectsUnknownClass pins class validation.
func TestSubmitRejectsUnknownClass(t *testing.T) {
	h := sharedHarness(t)
	s := newScheduler(t, h, 1)
	j := squareJob(h).WithClass(qos.ClassID(17))
	if _, err := s.Submit(j); err == nil {
		t.Fatal("out-of-range class accepted")
	}
	j2 := squareJob(h).WithClass(qos.ClassID(-1))
	if _, err := s.Submit(j2); err == nil {
		t.Fatal("negative class accepted")
	}
}

// TestAdmissionShedsPartialShareClass is the admission-control pin
// (and the Future.Wait error-path regression of the satellite): a
// class with a partial queue share sheds over-limit jobs with
// ErrOverloaded instead of blocking, the rejected count shows up in
// the per-class stats, every accepted job still completes, and
// Drain/Close never wedge on the rejections.
func TestAdmissionShedsPartialShareClass(t *testing.T) {
	h := sharedHarness(t)
	classes := []qos.Class{
		{Name: "shed", Weight: 1, Share: 0.5},  // rejects over its slice
		{Name: "block", Weight: 1, Share: 1.0}, // plain backpressure
	}
	cfg := qosConfig(1, classes, qos.WFQ)
	cfg.MaxBatch = 1
	cfg.PendingCap = 1 // queue capacity 1 -> shed class limit 1
	s := newSchedulerWith(t, h, gpu.Device1Spec(), cfg)

	const flood = 30
	var futs []*Future
	var rejected int64
	for i, j := range squareJobs(h, flood) {
		fut, err := s.Submit(j.WithClass(0))
		switch {
		case err == nil:
			futs = append(futs, fut)
		case errors.Is(err, ErrOverloaded):
			if fut != nil {
				t.Fatal("ErrOverloaded returned a non-nil future")
			}
			rejected++
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if rejected == 0 {
		t.Fatalf("no job shed while flooding %d jobs through a 1-slot share", flood)
	}
	if len(futs) == 0 {
		t.Fatal("every job shed; admission must keep at least one slot")
	}
	s.Drain() // must not wedge on the shed jobs
	for i, fut := range futs {
		if _, err := fut.Wait(); err != nil {
			t.Fatalf("accepted job %d failed: %v", i, err)
		}
	}
	st := shardStats(s)
	cs := st.PerClass[0]
	if cs.Rejected != rejected {
		t.Fatalf("stats count %d rejected, caller saw %d", cs.Rejected, rejected)
	}
	if cs.Submitted != int64(len(futs)) || cs.Completed != int64(len(futs)) {
		t.Fatalf("class stats %+v, want %d submitted and completed", cs, len(futs))
	}
	if st.Jobs != int64(len(futs)) || st.Failed != 0 {
		t.Fatalf("stats = %d jobs / %d failed, want %d/0", st.Jobs, st.Failed, len(futs))
	}
	s.Close() // explicit: must not wedge either (defer re-enters, idempotent)
}

// TestStrictPriorityOrdersDispatch pins the dispatch plumbing: with a
// single worker busy on a plug job, queued interactive jobs must
// overtake the already-queued batch backlog, which shows up as a
// strictly lower interactive latency tail than the batch tail.
func TestStrictPriorityOrdersDispatch(t *testing.T) {
	h := sharedHarness(t)
	// Full shares: this test floods the queue, so the default
	// Interactive share (0.5) would shed instead of queue.
	classes := []qos.Class{
		{Name: "inter", Weight: 8, Priority: 2, Share: 1},
		{Name: "batch", Weight: 1, Priority: 1, Share: 1},
	}
	cfg := qosConfig(1, classes, qos.StrictPriority)
	cfg.MaxBatch = 1
	cfg.PendingCap = 32 // deep decision pool
	s := newSchedulerWith(t, h, gpu.Device1Spec(), cfg)

	const interClass, batchClass = qos.ClassID(0), qos.ClassID(1)
	const batchJobs, interJobs = 10, 4
	jobs := squareJobs(h, 1+batchJobs+interJobs)
	if _, err := s.Submit(jobs[0].WithClass(batchClass)); err != nil {
		t.Fatal(err) // plug: occupies the worker while the rest queue
	}
	for _, j := range jobs[1 : 1+batchJobs] {
		if _, err := s.Submit(j.WithClass(batchClass)); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs[1+batchJobs:] {
		if _, err := s.Submit(j.WithClass(interClass)); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
	st := shardStats(s)
	inter, batch := st.PerClass[interClass], st.PerClass[batchClass]
	if inter.Completed != interJobs || batch.Completed != batchJobs+1 {
		t.Fatalf("completed %d/%d, want %d/%d", inter.Completed, batch.Completed, interJobs, batchJobs+1)
	}
	// The interactive jobs were submitted last but dispatched first:
	// their worst latency must beat the batch tail (the last batch
	// jobs ran after every interactive one).
	if inter.P99 >= batch.P99 {
		t.Fatalf("interactive P99 %.3gs >= batch P99 %.3gs; priority dispatch had no effect", inter.P99, batch.P99)
	}
	if inter.P50 <= 0 || batch.P50 <= 0 {
		t.Fatalf("latency quantiles missing: %+v / %+v", inter, batch)
	}
}

// TestDeadlineAccounting pins deadline hit/miss stats: a generous
// deadline is a hit, an impossibly tight one a miss, and a job
// without a deadline counts as neither.
func TestDeadlineAccounting(t *testing.T) {
	h := sharedHarness(t)
	s := newScheduler(t, h, 1)
	for _, d := range []float64{1e9, 1e-15, 0} {
		if _, err := s.Submit(squareJob(h).WithDeadline(d)); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
	cs := shardStats(s).PerClass[qos.Batch]
	if cs.DeadlineHit != 1 || cs.DeadlineMiss != 1 {
		t.Fatalf("deadline stats hit=%d miss=%d, want 1/1 (deadline-less job counts as neither)",
			cs.DeadlineHit, cs.DeadlineMiss)
	}
	if cs.Completed != 3 {
		t.Fatalf("completed = %d, want 3", cs.Completed)
	}
}

// TestEDFSchedulerOrdersByDeadline pins the deadline-sorted queue
// plumbing end to end: with the one worker plugged, a tight-deadline
// job submitted after a loose-deadline backlog must run first.
//
// The batch hook holds the worker twice. It holds the plug's batch
// until the whole backlog is queued, so the next cut sees all of it
// whatever the number of CPUs. It holds again at the first batch the
// worker starts once the tight job has resolved, until the loose jobs
// are counted: with one CPU the test goroutine would not run again
// before the worker had finished the backlog, and every loose job would
// count as done before the tight one.
func TestEDFSchedulerOrdersByDeadline(t *testing.T) {
	h := sharedHarness(t)
	cfg := qosConfig(1, qos.DefaultClasses(), qos.EDF)
	cfg.MaxBatch = 1
	cfg.PendingCap = 32 // deep decision pool
	s := newSchedulerWith(t, h, gpu.Device1Spec(), cfg)
	var tightFut atomic.Pointer[Future]
	plugged, queued, counted := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var queuedOnce, countedOnce sync.Once
	unplug := func() { queuedOnce.Do(func() { close(queued) }) }
	resume := func() { countedOnce.Do(func() { close(counted) }) }
	defer unplug() // a failed test must not leave the worker held: teardown drains
	defer resume()
	first, held := true, false // only the one worker runs the hook
	s.onBatch = func() {
		if first {
			first = false
			close(plugged)
			<-queued
			return
		}
		if f := tightFut.Load(); f != nil && !held {
			select {
			case <-f.Done():
				held = true
				<-counted
			default:
			}
		}
	}

	const loose = 8
	jobs := squareJobs(h, loose+2)
	if _, err := s.Submit(jobs[0]); err != nil {
		t.Fatal(err) // plug
	}
	<-plugged
	looseFuts := make([]*Future, loose)
	for i := 0; i < loose; i++ {
		var err error
		if looseFuts[i], err = s.Submit(jobs[1+i].WithDeadline(1e6)); err != nil {
			t.Fatal(err)
		}
	}
	tight, err := s.Submit(jobs[loose+1].WithDeadline(1e-12))
	if err != nil {
		t.Fatal(err)
	}
	tightFut.Store(tight)
	unplug()
	if _, err := tight.Wait(); err != nil {
		t.Fatal(err)
	}
	// The tight job was submitted last but sorts to the front of the
	// deadline-ordered queue: when it completes, most of the loose
	// backlog must still be pending (only a batch the worker prefetched
	// while it ran the tight job can be resolved with it).
	looseDone := 0
	for _, f := range looseFuts {
		select {
		case <-f.Done():
			looseDone++
		default:
		}
	}
	resume()
	if looseDone > 4 {
		t.Fatalf("%d of %d loose jobs finished before the tight-deadline job; EDF did not overtake", looseDone, loose)
	}
	s.Drain()
	cs := shardStats(s).PerClass[qos.Batch]
	if cs.DeadlineMiss == 0 {
		t.Fatal("the 1e-12s deadline cannot be met; miss accounting broken")
	}
	if cs.DeadlineHit != loose {
		t.Fatalf("deadline hits = %d, want %d (every loose job meets 1e6s)", cs.DeadlineHit, loose)
	}
}

// TestWFQServiceSplitsByWeight drives the full scheduler with two
// always-backlogged custom classes at 3:1 weights and verifies the
// dispatch order honors the split: in every prefix of the dispatch
// sequence the heavy class stays close to its 3/4 share. Latency
// quantiles make the split observable: the light class's median wait
// must exceed the heavy one's.
func TestWFQServiceSplitsByWeight(t *testing.T) {
	h := sharedHarness(t)
	classes := []qos.Class{
		{Name: "heavy", Weight: 3, Share: 1},
		{Name: "light", Weight: 1, Share: 1},
	}
	cfg := qosConfig(1, classes, qos.WFQ)
	cfg.MaxBatch = 1
	cfg.PendingCap = 32 // deep decision pool
	s := newSchedulerWith(t, h, gpu.Device1Spec(), cfg)

	const each = 8
	jobs := squareJobs(h, 1+2*each)
	if _, err := s.Submit(jobs[0].WithClass(0)); err != nil {
		t.Fatal(err) // plug
	}
	for i := 0; i < each; i++ {
		if _, err := s.Submit(jobs[1+2*i].WithClass(0)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(jobs[2+2*i].WithClass(1)); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
	st := shardStats(s)
	heavy, light := st.PerClass[0], st.PerClass[1]
	if heavy.Completed != each+1 || light.Completed != each {
		t.Fatalf("completed %d/%d, want %d/%d", heavy.Completed, light.Completed, each+1, each)
	}
	// Equal backlogs, 3:1 service: the light class queues longer.
	if light.P50 <= heavy.P50 {
		t.Fatalf("light-class P50 %.3gs <= heavy-class P50 %.3gs; WFQ split not visible", light.P50, heavy.P50)
	}
}
