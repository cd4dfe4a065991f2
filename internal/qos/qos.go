// Package qos defines the scheduling-policy layer of the concurrent
// scheduler: job classes (priority tiers with weights, admission
// shares and optional simulated-time deadlines) and pluggable
// dispatch policies that decide, each time a worker slot frees up,
// which class's backlog runs next.
//
// # Classes
//
// A Class describes one traffic tier. The three built-in tiers model
// a production mixed workload in front of the HE service:
//
//   - Interactive: latency-sensitive inference chains. High weight,
//     highest strict priority, bounded admission share (overload sheds
//     these jobs with ErrOverloaded instead of queueing them behind a
//     backlog that already guarantees a missed latency target), and
//     latency-sensitive routing in the cluster (expected-wait instead
//     of plain least-loaded).
//   - Batch: bulk analytics, the default for untagged jobs. Full
//     admission share: when the queue is full, Submit blocks — the
//     classic backpressure contract of the scheduler.
//   - Background: best-effort (re-encryption sweeps, maintenance).
//     Lowest weight and priority, bounded share.
//
// User-defined tiers are just additional Class values passed to the
// scheduler configuration; jobs reference them by index.
//
// # Policies — selection guide
//
//   - WFQ (default): weighted fair queuing. Every backlogged class
//     makes progress in proportion to its Weight; an idle class gains
//     no credit while idle, so a returning class cannot monopolize
//     the workers. Choose it for mixed traffic where every tier must
//     keep moving — it is the only policy that is starvation-free by
//     construction.
//   - StrictPriority: the highest-Priority backlogged class always
//     wins. Choose it when interactive latency matters more than
//     batch progress; combine with aging (see below) to bound how
//     long a starved class can wait.
//   - EDF: earliest deadline first, across and within classes (class
//     queues are kept deadline-sorted). Choose it when jobs carry
//     meaningful deadlines: EDF is optimal for meetable deadline sets
//     on a single server — if any order meets all deadlines, EDF
//     does. Jobs without a deadline sort last and fall back to
//     arrival order.
//   - FIFO: global arrival order, classes ignored. The baseline the
//     mixed-workload benchmark compares against.
//
// Every policy composes with WithAging: once the oldest queued job of
// any class has waited longer than the aging window (in simulated
// seconds), that class overrides the policy's pick. This bounds
// starvation under StrictPriority and tightens tail latency under the
// others; the scheduler always applies it, with window DefaultAging.
package qos

import "math"

// ClassID indexes a job's class in the scheduler's class table.
type ClassID int

// The built-in traffic tiers of DefaultClasses.
const (
	Interactive ClassID = iota
	Batch
	Background
)

// Class describes one traffic tier.
type Class struct {
	// Name labels the class in stats and bench output.
	Name string
	// Weight is the WFQ share: a backlogged class receives service
	// proportional to its weight. Zero or negative defaults to 1.
	Weight float64
	// Priority ranks the class under StrictPriority: higher wins.
	Priority int
	// Share bounds the class's slice of the scheduler's pending-job
	// queue, as a fraction of the total queue capacity. A share < 1
	// is a hard admission bound: Submit returns ErrOverloaded when
	// the class's backlog is full (shed load instead of queueing).
	// A share >= 1 (or 0, which defaults to 1) means the class may
	// fill the whole queue and Submit blocks when it does — the
	// plain backpressure contract.
	Share float64
	// LatencySensitive selects expected-wait routing in the cluster:
	// jobs of this class go to the shard with the least outstanding
	// weighted work per unit of device throughput, rather than the
	// generic least-loaded pick.
	LatencySensitive bool
}

// DefaultAging is the default aging window in simulated seconds: the
// longest the head job of any class waits before its class overrides
// the policy's pick. At the demo parameters one job is ~100-150
// simulated microseconds, so the bound is on the order of a hundred
// jobs' worth of backlog.
const DefaultAging = 0.02

// DefaultClasses returns the built-in Interactive/Batch/Background
// tiers (indexed by the ClassID constants).
func DefaultClasses() []Class {
	return []Class{
		Interactive: {Name: "interactive", Weight: 8, Priority: 2, Share: 0.5, LatencySensitive: true},
		Batch:       {Name: "batch", Weight: 3, Priority: 1, Share: 1},
		Background:  {Name: "background", Weight: 1, Priority: 0, Share: 0.75},
	}
}

// NoDeadline is the absolute deadline of a job that has none.
func NoDeadline() float64 { return math.Inf(1) }

// QueueState is the dispatcher's snapshot of one class's backlog,
// handed to Policy.Pick. Times are in simulated seconds on the
// scheduler's backend clock.
type QueueState struct {
	// Len is the number of queued (not yet dispatched) jobs.
	Len int
	// HeadEnqueued is when the head job entered the queue.
	HeadEnqueued float64
	// HeadDeadline is the head job's absolute deadline (NoDeadline()
	// when it has none). Under a deadline-ordered policy the head is
	// the most urgent job of the class.
	HeadDeadline float64
	// OldestEnqueued is the enqueue time of the longest-waiting job
	// anywhere in the queue — equal to HeadEnqueued for FIFO-ordered
	// queues, but possibly older under deadline ordering, where a
	// deadline-less job can sit pinned at the tail. Aging keys off
	// this, so its starvation bound holds under every ordering.
	OldestEnqueued float64
}

// Policy decides which class's backlog dispatches next. A policy
// instance belongs to one scheduler's dispatcher, which calls Pick and
// Dispatched under the scheduler's queue lock, never concurrently, so
// implementations need no locking.
type Policy interface {
	// Pick returns the index of the class to dispatch from, or -1 if
	// every queue is empty. Only classes with queues[i].Len > 0 may
	// be returned. now is the current simulated time.
	Pick(now float64, classes []Class, queues []QueueState) int
	// Dispatched informs the policy that jobs of class were shipped
	// to a worker (WFQ advances its virtual time here).
	Dispatched(class, jobs int)
	// DeadlineOrdered reports whether class queues should be kept
	// sorted by absolute deadline instead of arrival order (EDF).
	DeadlineOrdered() bool
}

// Factory builds a fresh policy instance for one scheduler. Each
// cluster shard gets its own instance (policies are stateful).
type Factory func(classes []Class) Policy

// weightOf returns the effective WFQ weight of a class.
func weightOf(c Class) float64 {
	if c.Weight <= 0 {
		return 1
	}
	return c.Weight
}

// wfq is weighted fair queuing over class backlogs: each class
// accrues virtual time served/weight, and the backlogged class with
// the least virtual time runs next.
type wfq struct {
	vtime   []float64
	weights []float64
}

// WFQ returns a weighted-fair-queuing policy (the default).
func WFQ(classes []Class) Policy {
	w := &wfq{
		vtime:   make([]float64, len(classes)),
		weights: make([]float64, len(classes)),
	}
	for i, c := range classes {
		w.weights[i] = weightOf(c)
	}
	return w
}

func (w *wfq) DeadlineOrdered() bool { return false }

func (w *wfq) Pick(now float64, classes []Class, queues []QueueState) int {
	best := -1
	for i, q := range queues {
		if q.Len == 0 {
			continue
		}
		if best < 0 || w.vtime[i] < w.vtime[best] {
			best = i
		}
	}
	if best < 0 {
		return -1
	}
	// Idle classes track the service frontier: an empty queue banks
	// no credit, so a class returning from idleness competes from the
	// current virtual time instead of monopolizing the workers.
	for i, q := range queues {
		if q.Len == 0 && w.vtime[i] < w.vtime[best] {
			w.vtime[i] = w.vtime[best]
		}
	}
	return best
}

func (w *wfq) Dispatched(class, jobs int) {
	w.vtime[class] += float64(jobs) / w.weights[class]
}

// strict always serves the highest-priority backlogged class.
type strict struct{}

// StrictPriority returns a strict-priority policy: the backlogged
// class with the highest Priority always dispatches first (ties go to
// the lowest class index). Pair with WithAging to bound starvation.
func StrictPriority(classes []Class) Policy { return strict{} }

func (strict) DeadlineOrdered() bool { return false }
func (strict) Dispatched(int, int)   {}

func (strict) Pick(now float64, classes []Class, queues []QueueState) int {
	best := -1
	for i, q := range queues {
		if q.Len == 0 {
			continue
		}
		if best < 0 || classes[i].Priority > classes[best].Priority {
			best = i
		}
	}
	return best
}

// edf serves the earliest absolute deadline across all classes.
type edf struct{}

// EDF returns an earliest-deadline-first policy. Class queues are
// kept deadline-sorted (DeadlineOrdered), so the pick compares the
// most urgent job of every class; deadline-less jobs sort last and
// fall back to arrival order. On a single server EDF meets every
// deadline of any meetable scenario.
func EDF(classes []Class) Policy { return edf{} }

func (edf) DeadlineOrdered() bool { return true }
func (edf) Dispatched(int, int)   {}

func (edf) Pick(now float64, classes []Class, queues []QueueState) int {
	best := -1
	for i, q := range queues {
		if q.Len == 0 {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := queues[best]
		if q.HeadDeadline < b.HeadDeadline ||
			(q.HeadDeadline == b.HeadDeadline && q.HeadEnqueued < b.HeadEnqueued) {
			best = i
		}
	}
	return best
}

// fifo serves global arrival order, ignoring classes — the baseline
// the mixed-workload benchmark compares the QoS policies against.
type fifo struct{}

// FIFO returns the class-blind arrival-order policy.
func FIFO(classes []Class) Policy { return fifo{} }

func (fifo) DeadlineOrdered() bool { return false }
func (fifo) Dispatched(int, int)   {}

func (fifo) Pick(now float64, classes []Class, queues []QueueState) int {
	best := -1
	for i, q := range queues {
		if q.Len == 0 {
			continue
		}
		if best < 0 || q.HeadEnqueued < queues[best].HeadEnqueued {
			best = i
		}
	}
	return best
}

// aging wraps a policy with starvation protection: once the head job
// of any class has waited at least maxWait simulated seconds, the
// longest-waiting such class overrides the inner pick.
type aging struct {
	inner   Policy
	maxWait float64
}

// WithAging bounds the queueing delay of every class under any inner
// policy: a class whose longest-waiting job has waited >= maxWait
// simulated seconds is dispatched next regardless of the inner
// policy's preference (the longest wait wins among overdue classes).
func WithAging(inner Policy, maxWait float64) Policy {
	return &aging{inner: inner, maxWait: maxWait}
}

func (a *aging) DeadlineOrdered() bool   { return a.inner.DeadlineOrdered() }
func (a *aging) Dispatched(class, n int) { a.inner.Dispatched(class, n) }

func (a *aging) Pick(now float64, classes []Class, queues []QueueState) int {
	best, bestWait := -1, a.maxWait
	for i, q := range queues {
		if q.Len == 0 {
			continue
		}
		if wait := now - q.OldestEnqueued; wait >= bestWait {
			best, bestWait = i, wait
		}
	}
	if best >= 0 {
		return best
	}
	return a.inner.Pick(now, classes, queues)
}
