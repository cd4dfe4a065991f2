package sched

import (
	"slices"
	"sort"

	"xehe/internal/qos"
)

// dispatcher is the scheduler's dispatch decisions as data: the class
// queues, the QoS policy and its state, the admission limits, and per
// worker the jobs it holds. It has no goroutine, channel, lock or
// clock. The Scheduler feeds it events under qmu — arrive, pull (next),
// finished — and hands it the simulated time where a decision needs
// one, so every decision of which jobs run together on which worker
// can be driven, and tested, from a literal event list
// (dispatch_test.go).
//
// The rule: a batch is cut only when a worker can start it next. A
// worker pulls (next) when it is about to start a batch — at the head
// of its loop, or to prefetch the one after the batch it holds — so
// jobs stay queued, where later arrivals coalesce with them, until the
// last moment. A worker that holds jobs yields to one that holds none:
// the idle worker is served first.
type dispatcher struct {
	classes  []qos.Class
	policy   qos.Policy
	deadline bool // the policy wants class queues deadline-sorted
	maxBatch int
	limits   []int  // per-class queued-job cap
	rejects  []bool // true: an arrival over the cap is shed, not blocked

	queues  [][]*task
	queued  int              // jobs in the class queues
	waiting int              // jobs parked on unresolved dependencies
	lastEnq float64          // last enqueue stamp issued (monotonicity floor)
	held    []int            // per worker: jobs pulled and not yet let go (finished)
	states  []qos.QueueState // the policy's view, rebuilt per decision
}

// ship is one decision: batch, popped from class's queue.
type ship struct {
	class int
	batch []*task
}

// newDispatcher builds the core over a Config with its defaults
// resolved. Each class owns Share of the PendingCap: a full share (>= 1,
// or 0, which defaults to 1) blocks an arrival over it — backpressure —
// and a partial share sheds it with ErrOverloaded.
func newDispatcher(cfg Config) *dispatcher {
	d := &dispatcher{
		classes:  cfg.Classes,
		policy:   qos.WithAging(cfg.Policy(cfg.Classes), qos.DefaultAging),
		maxBatch: cfg.MaxBatch,
		limits:   make([]int, len(cfg.Classes)),
		rejects:  make([]bool, len(cfg.Classes)),
		queues:   make([][]*task, len(cfg.Classes)),
		held:     make([]int, cfg.Workers),
		states:   make([]qos.QueueState, len(cfg.Classes)),
	}
	d.deadline = d.policy.DeadlineOrdered()
	for i, c := range cfg.Classes {
		d.limits[i] = cfg.PendingCap
		if c.Share > 0 && c.Share < 1 {
			d.limits[i] = max(int(c.Share*float64(cfg.PendingCap)), 1)
			d.rejects[i] = true
		}
	}
	return d
}

// full reports whether class's queue is at its admission cap.
func (d *dispatcher) full(class int) bool { return len(d.queues[class]) >= d.limits[class] }

// pending is what the dispatcher has yet to hand out: queued jobs and jobs
// parked on their dependencies.
func (d *dispatcher) pending() int { return d.queued + d.waiting }

// stamp issues t's enqueue stamp at simulated time now, and its
// absolute deadline from it. Stamps strictly increase: the simulated
// clock only advances with device activity, so a burst of arrivals would
// otherwise tie, and arrival-order policies would degenerate to
// class-index order. The epsilon is far below any real latency.
func (d *dispatcher) stamp(t *task, now float64) {
	t.enq = now
	if t.enq <= d.lastEnq {
		t.enq = d.lastEnq + 1e-12
	}
	d.lastEnq = t.enq
	t.deadline = qos.NoDeadline()
	if t.job.Deadline > 0 {
		t.deadline = t.enq + t.job.Deadline
	}
}

// arrive inserts t into its class queue: sorted by absolute deadline
// when the policy asks for it, by enqueue stamp otherwise. Local arrivals
// carry increasing stamps, so the sort is an append for them; only
// relocated tasks — whose rebased stamps keep the wait they served
// elsewhere — land mid-queue, which keeps the head the true oldest job
// for FIFO order and for the aging bound.
func (d *dispatcher) arrive(t *task) {
	q := d.queues[t.class]
	var i int
	if d.deadline {
		// Before the first strictly later deadline, keeping equal
		// deadlines (and deadline-less tails) in arrival order.
		i = sort.Search(len(q), func(i int) bool { return q[i].deadline > t.deadline })
	} else {
		i = sort.Search(len(q), func(i int) bool { return q[i].enq > t.enq })
	}
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = t
	d.queues[t.class] = q
	d.queued++
}

// next is worker w's pull at simulated time now: the policy picks the
// class, and up to maxBatch jobs of its head's shape leave the queue
// (the rest keep their order) as w's next batch. False when nothing is
// queued, or when w holds jobs and another worker holds none — that one
// is served first.
func (d *dispatcher) next(w int, now float64) (ship, bool) {
	if d.queued == 0 || d.held[w] > 0 && slices.Contains(d.held, 0) {
		return ship{}, false
	}
	for i, q := range d.queues {
		d.states[i] = qos.QueueState{}
		if len(q) == 0 {
			continue
		}
		oldest := q[0].enq
		if d.deadline {
			// Deadline order can pin an old deadline-less job at the
			// tail; aging needs the true longest wait.
			for _, t := range q[1:] {
				oldest = min(oldest, t.enq)
			}
		}
		d.states[i] = qos.QueueState{
			Len:            len(q),
			HeadEnqueued:   q[0].enq,
			HeadDeadline:   q[0].deadline,
			OldestEnqueued: oldest,
		}
	}
	c := d.policy.Pick(now, d.classes, d.states)
	if c < 0 {
		return ship{}, false
	}
	q := d.queues[c]
	batch := []*task{q[0]}
	// In-place filter: writes trail reads, so the compaction never
	// clobbers an unread entry.
	rest := q[:0]
	for _, t := range q[1:] {
		if len(batch) < d.maxBatch && t.shape == batch[0].shape {
			batch = append(batch, t)
		} else {
			rest = append(rest, t)
		}
	}
	clear(q[len(rest):])
	d.queues[c] = rest
	d.queued -= len(batch)
	d.policy.Dispatched(c, len(batch))
	d.held[w] += len(batch)
	return ship{class: c, batch: batch}, true
}

// finished records that worker w let go of jobs: they completed, went to
// the retry plane, or were surrendered by a killed shard.
func (d *dispatcher) finished(w, jobs int) { d.held[w] -= jobs }

// steal removes up to n queued tasks for another shard: tail-first from
// the longest class backlog (ties to the lowest class), so the head jobs
// the policy is about to serve stay.
func (d *dispatcher) steal(n int) []*task {
	var out []*task
	for len(out) < n && d.queued > 0 {
		c := leastLoaded(len(d.queues), func(i int) (float64, bool) {
			return -float64(len(d.queues[i])), len(d.queues[i]) > 0
		})
		q := d.queues[c]
		out = append(out, q[len(q)-1])
		q[len(q)-1] = nil
		d.queues[c] = q[:len(q)-1]
		d.queued--
	}
	return out
}

// leastLoaded is the one least-loaded rule: among the candidates i < n
// that cost admits, the lowest cost wins, ties to the lowest index; -1
// when none is admitted. It chooses the shard for a job (Cluster.pick),
// the shard for relocated tasks (Cluster.dest), and the backlog a steal
// takes from — the longest, at cost minus its length (dispatcher.steal,
// Cluster.stealRound).
func leastLoaded(n int, cost func(i int) (float64, bool)) int {
	best, bestCost := -1, 0.0
	for i := 0; i < n; i++ {
		if c, ok := cost(i); ok && (best < 0 || c < bestCost) {
			best, bestCost = i, c
		}
	}
	return best
}
