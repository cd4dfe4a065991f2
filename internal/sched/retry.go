package sched

import (
	"errors"
	"math"

	"xehe/internal/gpu"
)

// DefaultRetryBackoff is the base retry backoff in simulated seconds.
// It doubles per attempt, so attempt n of a job is priced n doublings
// late on the simulated timeline.
const DefaultRetryBackoff = 50e-6

// retryParkRounds bounds how many control-loop rounds a task may wait
// for an open shard to appear (the supervisor replacing killed
// capacity) before it fails with its original error. Rounds tick on
// the host wall-clock at controlInterval, so the bound is tens of
// milliseconds — far beyond any replacement path — while guaranteeing
// a cluster that never heals still terminates every job.
const retryParkRounds = 256

// RetryPolicy is the per-job retry budget applied by a Cluster
// (Config.Retry): transiently failed jobs — a dropped network
// hop (gpu.ErrLinkFault), a shard lost while its replacement spins up
// (ErrShardLost) — re-execute on an open shard instead of surfacing
// the error, with exponential backoff priced on the simulated clock
// and charged against the job's latency and QoS deadline. Retries are
// deadline-aware: a retry that could not start before the job's
// deadline is not attempted, and the caller sees the original error.
// The zero value disables retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of execution attempts a job may
	// consume, first run included; <= 1 disables retries.
	MaxAttempts int
}

// backoff prices retry number attempt (0-based):
// DefaultRetryBackoff * 2^attempt.
func backoff(attempt int) float64 {
	return DefaultRetryBackoff * math.Pow(2, float64(attempt))
}

// budget is every job's retry allowance: attempts beyond the first.
func (p RetryPolicy) budget() int {
	if p.MaxAttempts <= 1 {
		return 0
	}
	return p.MaxAttempts - 1
}

// retryable classifies an execution error as transient: a dropped
// network crossing (the hop may succeed elsewhere or later) or a shard
// lost mid-flight (the supervisor may be replacing it). Anything else
// — a malformed chain, a genuine kernel fault — is deterministic and
// would fail identically on every attempt.
func retryable(err error) bool {
	return errors.Is(err, gpu.ErrLinkFault) || errors.Is(err, ErrShardLost)
}

// retryEligible decides — under the future's lock, before settlement —
// whether a failed task should be offered to the cluster's retry plane
// instead of finishing: budget must remain, the error must be
// transient, and the retry must be able to start before the job's
// deadline on the simulated clock.
func (s *Scheduler) retryEligible(t *task, err error) bool {
	if t.attempt >= s.cfg.Retry.budget() || !retryable(err) {
		return false
	}
	if !math.IsInf(t.deadline, 1) &&
		s.dev.SimulatedSeconds()+backoff(t.attempt) > t.deadline {
		return false
	}
	return true
}

// retryEntry is one detached task parked in the cluster's retry plane
// (backoff already priced into its stamps), with outstanding accounting
// still held by src until the re-injection lands.
type retryEntry struct {
	t      *task
	src    *shard
	parked int // rounds spent waiting for an open shard
}

// offerRetry takes a failed task (absolute stamps) off src's worker: it
// detaches the task from src's clock and queues it for re-injection.
// True means the cluster took it: the future stays pending, dependency
// references travel with the task for the re-execution, and outstanding
// accounting stays with src until the re-injection transfers it —
// exactly like a surrender. False means the retry plane declined
// (budget, deadline, error class, or the cluster shutting down) and the
// task is back on src's clock for the normal failure path.
func (c *Cluster) offerRetry(src *shard, t *task, err error) bool {
	now := src.sched.dev.SimulatedSeconds()
	t.detach(now)
	if c.queueRetry(src, t, err) {
		return true
	}
	t.attach(now)
	return false
}

// queueRetry parks one detached task in the retry plane,
// consuming an attempt and pricing its exponential backoff into the
// stamps: the elapsed wait grows by the backoff (the re-run's latency
// accounting includes it) and the remaining deadline budget shrinks.
// False declines the retry: no budget, non-transient error, a backoff
// that overshoots the deadline, or a closing cluster (checked under
// retryMu, which failParked takes after closed is set: an entry is
// either refused here or seen there, never stranded).
func (c *Cluster) queueRetry(src *shard, t *task, err error) bool {
	if t.attempt >= c.cfg.Retry.budget() || !retryable(err) {
		return false
	}
	back := backoff(t.attempt)
	if t.deadline < back {
		return false // the retry could not start before the deadline
	}
	c.retryMu.Lock()
	if c.closed.Load() {
		c.retryMu.Unlock()
		return false
	}
	t.attempt++
	t.retryErr = err
	t.enq += back
	t.deadline -= back
	c.retryQ = append(c.retryQ, retryEntry{t: t, src: src})
	c.retryN.Store(int64(len(c.retryQ)))
	c.retryMu.Unlock()
	src.sched.met.class[t.class].retried.Add(1)
	return true
}

// takeParked empties the retry queue and returns what was in it.
func (c *Cluster) takeParked() []retryEntry {
	c.retryMu.Lock()
	defer c.retryMu.Unlock()
	parked := c.retryQ
	c.retryQ = nil
	c.retryN.Store(0)
	return parked
}

// retryRound is the control loop's second step: it drains the parked
// tasks once. Each is placed like any relocated task, except that its
// own src may take it — a transient link fault does not disqualify the
// shard. With no open shard the entry waits for the supervisor's
// replacement, up to retryParkRounds; a cluster that never heals fails
// the job with its original error.
func (c *Cluster) retryRound() {
	if c.retryN.Load() == 0 {
		return
	}
	parked := c.takeParked()
	var requeue []retryEntry
	c.stealMu.Lock()
	for _, e := range parked {
		if c.place(e.src, nil, []*task{e.t}) {
			continue
		}
		if e.parked++; e.parked > retryParkRounds {
			e.src.sched.abandon(e.t)
			continue
		}
		requeue = append(requeue, e)
	}
	c.stealMu.Unlock()
	if len(requeue) == 0 {
		return
	}
	// Close fails what is parked only after this loop has exited, so a
	// requeue cannot slip past it.
	c.retryMu.Lock()
	c.retryQ = append(c.retryQ, requeue...)
	c.retryN.Store(int64(len(c.retryQ)))
	c.retryMu.Unlock()
}

// failParked is Close's step after the control loop has exited: nothing
// re-injects any more and queueRetry refuses new entries, so every
// still-parked task fails with its original error — never a wedge.
func (c *Cluster) failParked() {
	for _, e := range c.takeParked() {
		e.src.sched.abandon(e.t)
	}
}
