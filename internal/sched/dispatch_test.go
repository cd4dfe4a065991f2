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
// workers with depth slots each, coalescing up to maxBatch jobs.
func newCore(workers, depth, maxBatch int, policy qos.Factory) *dispatcher {
	cfg := Config{Workers: workers, QueueDepth: depth, MaxBatch: maxBatch, Policy: policy}
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

// ships runs next at now until it declines and returns the decisions.
func ships(d *dispatcher, now float64) []ship {
	var out []ship
	for d.ready() {
		sh, ok := d.next(now)
		if !ok {
			break
		}
		out = append(out, sh)
	}
	return out
}

func TestDispatcherCoalescesHeadShape(t *testing.T) {
	d := newCore(1, 1, 3, qos.FIFO)
	var ts []*task
	for _, shape := range []string{"a", "a", "b", "a", "a"} {
		ts = append(ts, arriveAt(d, 0, qos.Batch, shape, 0))
	}
	// One slot: the head's shape coalesces up to MaxBatch, skipping the
	// other shape; the slot is then taken until the worker takes it.
	for i, want := range [][]*task{{ts[0], ts[1], ts[3]}, {ts[2]}, {ts[4]}} {
		got := ships(d, 0)
		if len(got) != 1 || got[0].worker != 0 || !reflect.DeepEqual(got[0].batch, want) {
			t.Fatalf("decision %d = %+v, want one batch %v to worker 0", i, got, want)
		}
		d.taken(0)
	}
	if d.ready() || d.queued != 0 || d.workers[0] != (workerLoad{batches: 0, jobs: 5}) {
		t.Fatalf("after draining: ready %v, queued %d, worker %+v", d.ready(), d.queued, d.workers[0])
	}
	d.finished(0, 5)
	if d.workers[0].jobs != 0 {
		t.Fatalf("finished left %d jobs on the worker", d.workers[0].jobs)
	}
}

func TestDispatcherShipsToLeastLoadedWorkerWithASlot(t *testing.T) {
	d := newCore(3, 2, 1, qos.FIFO)
	for i := 0; i < 7; i++ {
		arriveAt(d, 0, qos.Batch, "a", 0)
	}
	workers := func(ss []ship) (ws []int) {
		for _, s := range ss {
			ws = append(ws, s.worker)
		}
		return ws
	}
	// Ties go to the lowest index; six ships fill every slot and the
	// seventh job waits.
	if got := workers(ships(d, 0)); !reflect.DeepEqual(got, []int{0, 1, 2, 0, 1, 2}) {
		t.Fatalf("first ships went to %v", got)
	}
	// Fewer jobs alone frees no slot.
	d.finished(1, 1)
	if d.ready() {
		t.Fatal("a worker with fewer jobs but no free slot was offered a batch")
	}
	// Worker 2 takes a batch: it is the only one with a slot, though
	// worker 1 holds fewer jobs.
	d.taken(2)
	if got := workers(ships(d, 0)); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("with one free slot the job went to %v, want [2]", got)
	}
	// With a slot everywhere, the fewest jobs win: worker 1 (1 job)
	// over worker 0 (2) and worker 2 (3).
	d.taken(0)
	d.taken(1)
	d.taken(2)
	arriveAt(d, 0, qos.Batch, "a", 0)
	if got := workers(ships(d, 0)); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("with every slot free the job went to %v, want [1]", got)
	}
}

func TestDispatcherAgingOverridesPriority(t *testing.T) {
	d := newCore(1, 8, 1, qos.StrictPriority)
	bg := arriveAt(d, 0, qos.Background, "x", 0)
	i1 := arriveAt(d, 0.001, qos.Interactive, "y", 0)
	i2 := arriveAt(d, 0.029, qos.Interactive, "y", 0)
	var got []*task
	for _, now := range []float64{0.001, 0.03, 0.03} {
		sh, ok := d.next(now)
		if !ok {
			t.Fatalf("no decision at %g", now)
		}
		got = append(got, sh.batch...)
	}
	// Priority serves the interactive head first; by 0.03 the
	// background head has waited past DefaultAging (0.02) and overtakes
	// the second interactive job.
	if want := []*task{i1, bg, i2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

func TestDispatcherEDFOrdersByDeadline(t *testing.T) {
	d := newCore(1, 8, 1, qos.EDF)
	a := arriveAt(d, 0, qos.Batch, "s", 5)
	b := arriveAt(d, 0, qos.Batch, "s", 1)
	none := arriveAt(d, 0, qos.Batch, "s", 0)
	e := arriveAt(d, 0, qos.Batch, "s", 1)
	var got []*task
	for _, s := range ships(d, 1) {
		got = append(got, s.batch...)
	}
	// Equal deadlines keep arrival order; no deadline sorts last.
	if want := []*task{b, e, a, none}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

func TestDispatcherStampsStrictlyIncrease(t *testing.T) {
	d := newCore(1, 1, 1, qos.FIFO)
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
	d := newCore(1, 1, 1, qos.FIFO)
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
