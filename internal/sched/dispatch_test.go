package sched

import (
	"math"
	"reflect"
	"testing"

	"xehe/internal/qos"
)

// The dispatcher's tests drive the core with literal event lists: no
// device, no goroutine, and no clock but the times they pass in.

// newCore builds a dispatcher over the default classes for a pool of
// workers, coalescing up to maxBatch jobs.
func newCore(workers, maxBatch int, policy qos.Factory) *dispatcher {
	cfg := Config{Workers: workers, MaxBatch: maxBatch, Policy: policy}
	return newDispatcher(cfg.withDefaults(workers))
}

// arriveAt stamps a literal task of the class and shape at now and
// queues it; deadline is relative, 0 for none.
func arriveAt(d *dispatcher, now float64, class qos.ClassID, shape string, deadline float64) *task {
	t := &task{job: &Job{Class: class, Deadline: deadline}, class: int(class), shape: shape}
	d.stamp(t, now)
	d.arrive(t)
	return t
}

// pull is worker w's pull at now; it returns the batch's size, 0 when
// the dispatcher declines.
func pull(d *dispatcher, w int, now float64) int {
	sh, _ := d.next(w, now)
	return len(sh.batch)
}

// pulls has worker w pull at now until the dispatcher declines, and
// returns the batches in order.
func pulls(d *dispatcher, w int, now float64) [][]*task {
	var out [][]*task
	for {
		sh, ok := d.next(w, now)
		if !ok {
			return out
		}
		out = append(out, sh.batch)
	}
}

// A pull cuts the head's shape up to MaxBatch, skipping other shapes,
// which keep their order; a lone worker's prefetch pulls whatever is
// next, and finished lets go of what it holds.
func TestDispatcherCoalescesHeadShape(t *testing.T) {
	d := newCore(1, 3, qos.FIFO)
	var ts []*task
	for _, shape := range []string{"a", "a", "b", "a", "a"} {
		ts = append(ts, arriveAt(d, 0, qos.Batch, shape, 0))
	}
	want := [][]*task{{ts[0], ts[1], ts[3]}, {ts[2]}, {ts[4]}}
	if got := pulls(d, 0, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("pulls = %v, want %v", got, want)
	}
	if d.queued != 0 || d.held[0] != 5 {
		t.Fatalf("after draining: queued %d, worker holds %d, want 0 and 5", d.queued, d.held[0])
	}
	d.finished(0, 5)
	if d.held[0] != 0 {
		t.Fatalf("finished left %d jobs on the worker", d.held[0])
	}
}

// A worker that holds jobs — a prefetch, or a pull with a download in
// flight — yields to any worker that holds none; an idle worker's pull
// never yields, and letting go of every job makes a worker idle again.
func TestDispatcherPrefetchYieldsToIdleWorker(t *testing.T) {
	d := newCore(3, 1, qos.FIFO)
	for i := 0; i < 4; i++ {
		arriveAt(d, 0, qos.Batch, "a", 0)
	}
	type step struct{ w, jobs int }
	var got []step
	for _, w := range []int{0, 0, 1, 1, 2, 0, 1} {
		got = append(got, step{w, pull(d, w, 0)})
	}
	// Worker 0's and 1's prefetches yield while worker 2 is idle; once
	// every worker holds a job, worker 0's prefetch takes the fourth.
	want := []step{{0, 1}, {0, 0}, {1, 1}, {1, 0}, {2, 1}, {0, 1}, {1, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pulls (worker, jobs) = %v, want %v", got, want)
	}
	if want := []int{2, 1, 1}; !reflect.DeepEqual(d.held, want) {
		t.Fatalf("held %v, want %v", d.held, want)
	}
	// Worker 1 lets go of its job: the next arrival is its, and the
	// others' prefetches yield to it.
	d.finished(1, 1)
	arriveAt(d, 0, qos.Batch, "a", 0)
	if pull(d, 0, 0) != 0 || pull(d, 2, 0) != 0 || pull(d, 1, 0) != 1 {
		t.Fatalf("with worker 1 idle the job did not go to it (held %v, queued %d)", d.held, d.queued)
	}
}

// A burst of 2 x MaxBatch + 2 same-shape jobs onto two idle workers,
// pulled in the order runWorker pulls: the first worker to wake cuts a
// full batch and its prefetch yields to the other, still idle; that one
// cuts the second full batch and its prefetch takes the ragged rest.
// Nothing is cut before a worker can start it, so no job leaves alone.
func TestDispatcherPullsBurstOnTwoIdleWorkers(t *testing.T) {
	const maxBatch = 4
	d := newCore(2, maxBatch, qos.FIFO)
	for i := 0; i < 2*maxBatch+2; i++ {
		arriveAt(d, 0, qos.Batch, "a", 0)
	}
	type step struct{ w, jobs int }
	var got []step
	for _, w := range []int{0, 0, 1, 1, 0} {
		got = append(got, step{w, pull(d, w, 0)})
	}
	want := []step{{0, maxBatch}, {0, 0}, {1, maxBatch}, {1, 2}, {0, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pulls (worker, jobs) = %v, want %v", got, want)
	}
	if want := []int{maxBatch, maxBatch + 2}; !reflect.DeepEqual(d.held, want) || d.queued != 0 {
		t.Fatalf("held %v, queued %d, want %v and 0", d.held, d.queued, want)
	}
}

// The policy decides at the pull, at the pull's time: priority serves
// the interactive head first, and by 0.03 the background head has
// waited past DefaultAging (0.02) and overtakes the second interactive
// job.
func TestDispatcherAgingOverridesPriority(t *testing.T) {
	d := newCore(1, 1, qos.StrictPriority)
	bg := arriveAt(d, 0, qos.Background, "x", 0)
	i1 := arriveAt(d, 0.001, qos.Interactive, "y", 0)
	i2 := arriveAt(d, 0.029, qos.Interactive, "y", 0)
	var got []*task
	for _, now := range []float64{0.001, 0.03, 0.03} {
		sh, ok := d.next(0, now)
		if !ok {
			t.Fatalf("no decision at %g", now)
		}
		got = append(got, sh.batch...)
		d.finished(0, len(sh.batch))
	}
	if want := []*task{i1, bg, i2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// Under EDF successive pulls take the earliest deadline first; equal
// deadlines keep arrival order and no deadline sorts last.
func TestDispatcherEDFOrdersByDeadline(t *testing.T) {
	d := newCore(1, 1, qos.EDF)
	a := arriveAt(d, 0, qos.Batch, "s", 5)
	b := arriveAt(d, 0, qos.Batch, "s", 1)
	none := arriveAt(d, 0, qos.Batch, "s", 0)
	e := arriveAt(d, 0, qos.Batch, "s", 1)
	var got []*task
	for _, batch := range pulls(d, 0, 1) {
		got = append(got, batch...)
	}
	if want := []*task{b, e, a, none}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

func TestDispatcherStampsStrictlyIncrease(t *testing.T) {
	d := newCore(1, 1, qos.FIFO)
	a := arriveAt(d, 1, qos.Batch, "s", 0.25)
	b := arriveAt(d, 1, qos.Batch, "s", 0)
	c := arriveAt(d, 0.5, qos.Batch, "s", 0) // a clock reading behind the floor
	if a.enq != 1 || b.enq != 1+1e-12 || c.enq != b.enq+1e-12 {
		t.Fatalf("stamps %v, %v, %v", a.enq, b.enq, c.enq)
	}
	if a.deadline != 1.25 || !math.IsInf(b.deadline, 1) {
		t.Fatalf("deadlines %v, %v", a.deadline, b.deadline)
	}
}

func TestDispatcherAdmissionLimits(t *testing.T) {
	cfg := Config{Workers: 1, PendingCap: 8}
	d := newDispatcher(cfg.withDefaults(1))
	// Default shares: interactive 0.5 and background 0.75 shed over
	// their slice of the cap; batch (1) may fill it and blocks.
	if want := []int{4, 8, 6}; !reflect.DeepEqual(d.limits, want) {
		t.Fatalf("limits %v, want %v", d.limits, want)
	}
	if want := []bool{true, false, true}; !reflect.DeepEqual(d.rejects, want) {
		t.Fatalf("rejects %v, want %v", d.rejects, want)
	}
	for i := 0; i < 4; i++ {
		if d.full(int(qos.Interactive)) {
			t.Fatalf("interactive full after %d arrivals", i)
		}
		arriveAt(d, 0, qos.Interactive, "s", 0)
	}
	if !d.full(int(qos.Interactive)) || d.full(int(qos.Batch)) {
		t.Fatal("a full interactive slice must not fill the batch class")
	}
}

func TestDispatcherStealsTailOfLongestBacklog(t *testing.T) {
	d := newCore(1, 1, qos.FIFO)
	arriveAt(d, 0, qos.Interactive, "s", 0)
	i2 := arriveAt(d, 0, qos.Interactive, "s", 0)
	arriveAt(d, 0, qos.Batch, "s", 0)
	b2 := arriveAt(d, 0, qos.Batch, "s", 0)
	b3 := arriveAt(d, 0, qos.Batch, "s", 0)
	// Batch is longest; at a tie the lower class gives first.
	if got, want := d.steal(3), []*task{b3, i2, b2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("stole %v, want %v", got, want)
	}
	if d.queued != 2 {
		t.Fatalf("%d left queued, want 2", d.queued)
	}
	if got := d.steal(5); len(got) != 2 || d.queued != 0 {
		t.Fatalf("stealing past the backlog took %d, left %d", len(got), d.queued)
	}
}

func TestLeastLoaded(t *testing.T) {
	costs := []float64{3, 1, 1, 0}
	admit := []bool{true, true, true, false}
	cost := func(i int) (float64, bool) { return costs[i], admit[i] }
	if i := leastLoaded(len(costs), cost); i != 1 {
		t.Fatalf("picked %d, want 1: the cheapest admitted, ties to the lowest index", i)
	}
	admit = []bool{false, false, false, false}
	if i := leastLoaded(len(costs), cost); i != -1 {
		t.Fatalf("picked %d with nothing admitted, want -1", i)
	}
}
