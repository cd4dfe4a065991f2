package sched

import (
	"errors"
	"fmt"

	"xehe/internal/ckks"
	"xehe/internal/core"
	"xehe/internal/gpu"
)

// ErrResultDiscarded is returned by Future.Wait when the job's output
// was consumed by dependent jobs and released without ever being
// downloaded: producer→consumer edges keep intermediates device-resident
// and the last consumer frees them. Call Job.KeepOutput before Submit
// to also download such an output for the host.
var ErrResultDiscarded = errors.New("sched: job result discarded after last consumer (use KeepOutput to retain it)")

// residentOutput is a job output retained on the device for its
// consumers: the ciphertext's buffers are pinned in the backend's
// memory cache (so no free or eviction path reclaims them) and evs is
// the producer's pipeline tail, which every consumer orders its kernels
// after. All fields are guarded by the owning Future's mu.
type residentOutput struct {
	ct       *core.Ciphertext
	evs      []gpu.Event
	refs     int  // consumers still holding the output
	released bool // buffers unpinned (refs hit zero)
	owner    *Scheduler
}

// depRes is one resolved dependency input of a task. Exactly one of
// res/host is set: res borrows the producer's device-resident output
// (zero-copy), host is a rematerialized or already-downloaded host
// ciphertext the worker uploads like a plain input.
type depRes struct {
	fut  *Future
	res  *residentOutput
	host *ckks.Ciphertext
}

func newFuture() *Future {
	return &Future{done: make(chan struct{}), shard: -1}
}

// markSubmitted records the job's traced output meta and retention
// flag; from here on the future is a valid InputFrom source.
func (f *Future) markSubmitted(meta valueMeta, keep bool) {
	f.mu.Lock()
	f.sub = true
	f.meta = meta
	f.keep = keep
	f.mu.Unlock()
}

// outputMeta returns the producer's traced output (level, scale) for
// consumer-side validation. It is nil-receiver-safe because ShapeKey
// probes possibly-nil dependency slots.
func (f *Future) outputMeta() (valueMeta, error) {
	if f == nil {
		return valueMeta{}, errors.New("dependency future is nil")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.sub {
		return valueMeta{}, errors.New("producer job not yet submitted")
	}
	return f.meta, nil
}

// onSettled registers a consumer callback. Before the producer settles
// it counts the consumer into the residency plan and defers cb to
// settlement, returning true; after settlement it returns false and the
// caller resolves the dependency immediately.
func (f *Future) onSettled(cb func()) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.settled {
		return false
	}
	f.consumers++
	f.waiters = append(f.waiters, cb)
	return true
}

// finish completes the future: records the error, closes done, and runs
// the consumer callbacks registered before settlement (outside mu — they
// take other futures' and schedulers' locks).
func (f *Future) finish(err error) {
	f.mu.Lock()
	if err != nil {
		f.err = err
	}
	f.settled = true
	waiters := f.waiters
	f.waiters = nil
	f.mu.Unlock()
	close(f.done)
	for _, cb := range waiters {
		cb()
	}
}

// releaseRefLocked drops one consumer reference on the resident output,
// releasing it at zero. Caller holds f.mu.
func (f *Future) releaseRefLocked() {
	if r := f.resident; r != nil && !r.released {
		if r.refs--; r.refs == 0 {
			f.releaseLocked()
		}
	}
}

// releaseLocked releases the live resident output whatever its
// references: it is marked released, its buffers are unpinned (and
// thereby freed) and its owner stops tracking it. The last consumer
// reference and a retiring shard's migration come here. Caller holds
// f.mu.
func (f *Future) releaseLocked() {
	r := f.resident
	r.released = true
	for _, b := range r.ct.Buffers() {
		r.owner.cache.Unpin(b)
	}
	r.owner.untrackResident(f)
}

// materializeLocked returns the job's host-side result, downloading the
// device residency on demand if the output was retained for consumers
// and never shipped to the host. Caller holds f.mu.
func (f *Future) materializeLocked() (*ckks.Ciphertext, error) {
	if f.res != nil {
		return f.res, nil
	}
	r := f.resident
	if r == nil || r.released {
		return nil, ErrResultDiscarded
	}
	out, err := r.owner.downloadResident(r)
	if err != nil {
		return nil, err
	}
	f.res = out
	return out, nil
}

// settleOutput decides the fate of a staged job's output under the
// future's lock: with consumers registered, the result's buffers are
// pinned in the cache and ownership moves to a residentOutput (the
// value leaves sj.vals so the batch free path skips it). It reports
// whether the output still needs a host download — on error no, and
// with live consumers only when KeepOutput was requested.
func (s *Scheduler) settleOutput(w *worker, sj *staged) (needDL bool) {
	f := sj.t.fut
	f.mu.Lock()
	defer f.mu.Unlock()
	if sj.err != nil {
		if s.retryEligible(sj.t, sj.err) {
			// Transient failure with retry budget left: leave the future
			// UNSETTLED — consumers registered on it keep waiting for the
			// re-execution — and mark the staged job so the completion
			// path offers the task to the cluster's retry plane instead
			// of finishing it. This is the only place the retry decision
			// can be made: once f.settled/f.err publish, a late retry
			// would leak the failure to consumers. Failures after
			// settlement (a D2H download fault) are final.
			sj.retry = true
			return false
		}
		f.settled = true
		f.err = sj.err
		return false
	}
	f.settled = true
	if f.consumers > 0 {
		out := sj.vals[len(sj.vals)-1]
		for _, b := range out.Buffers() {
			s.cache.Pin(b)
		}
		f.resident = &residentOutput{
			ct:    out,
			evs:   w.ctx.Deps(),
			refs:  f.consumers,
			owner: s,
		}
		sj.vals[len(sj.vals)-1] = nil
		sj.out = out
		s.trackResident(f)
	}
	return f.keep || f.consumers == 0
}

// registerDeps wires a parked task to its producers: each unsettled
// producer gets a settlement callback; already-settled ones resolve
// immediately. The last resolution moves the task into its class queue
// (or fails it).
func (s *Scheduler) registerDeps(t *task) {
	t.deps = make([]depRes, len(t.job.Deps))
	s.qmu.Lock()
	t.waitN = len(t.job.Deps)
	s.qmu.Unlock()
	for i, f := range t.job.Deps {
		i, f := i, f
		if !f.onSettled(func() { s.depReady(t, i, f, true) }) {
			s.depReady(t, i, f, false)
		}
	}
}

// depReady resolves dependency i of a parked task. pre reports whether
// the consumer was counted into the producer's residency plan before
// settlement (a reference is then pre-held for it). When the last
// dependency resolves, the task moves to its class queue, or fails with
// the first producer error.
func (s *Scheduler) depReady(t *task, i int, f *Future, pre bool) {
	r, hit, err := s.resolveDep(f, pre)
	if err == nil {
		if hit {
			s.met.residentHits.Add(1)
		} else {
			s.met.residentMisses.Add(1)
		}
	}
	var failErr error
	s.qmu.Lock()
	t.deps[i] = r
	if err != nil && t.depErr == nil {
		t.depErr = fmt.Errorf("sched: dependency input %d: %w", i, err)
	}
	t.waitN--
	if t.waitN > 0 {
		s.qmu.Unlock()
		return
	}
	s.d.waiting--
	failErr = t.depErr
	if failErr == nil {
		// Attribute the dependency park: simulated time between the
		// consumer's admission and its last producer settling.
		if park := s.dev.SimulatedSeconds() - t.enq; park > 0 {
			s.met.depParkNS.Add(int64(park * 1e9))
		}
		s.arriveLocked(t)
	}
	s.qcond.Broadcast() // one parked job fewer: Close looks again
	s.qmu.Unlock()
	if failErr != nil {
		s.failTask(t, failErr)
	}
}

// resolveDep turns a settled producer future into a dependency value.
// It prefers the device residency when this scheduler owns it (hit =
// zero-copy edge); a residency on another shard is rematerialized
// host-side through the owner. pre releases the pre-counted reference
// on paths that do not keep one (producer failed, cross-shard
// materialization).
func (s *Scheduler) resolveDep(f *Future, pre bool) (d depRes, hit bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		if pre {
			f.releaseRefLocked()
		}
		return depRes{}, false, fmt.Errorf("producer job failed: %w", f.err)
	}
	r := f.resident
	if r != nil && !r.released {
		if !pre {
			r.refs++
		}
		if r.owner == s {
			return depRes{fut: f, res: r}, true, nil
		}
		// Producer lives on another shard: its queues cannot order this
		// shard's kernels, so the value crosses through the host.
		host, err := f.materializeLocked()
		f.releaseRefLocked()
		if err != nil {
			return depRes{}, false, err
		}
		return depRes{fut: f, host: host}, false, nil
	}
	if f.res != nil {
		return depRes{fut: f, host: f.res}, false, nil
	}
	return depRes{}, false, ErrResultDiscarded
}

// releaseDeps drops the task's references on its device-resident
// dependencies (the job has finished with them, or failed).
func (s *Scheduler) releaseDeps(t *task) {
	for _, d := range t.deps {
		if d.res == nil {
			continue
		}
		d.fut.mu.Lock()
		d.fut.releaseRefLocked()
		d.fut.mu.Unlock()
	}
}

// rehomeDeps converts the task's resolved dependencies for execution on
// this scheduler: residencies owned elsewhere are rematerialized
// host-side and their references released, so a relocated consumer
// uploads them like plain inputs. The task is owned exclusively by the
// migration here, so deps entries are written without qmu.
func (s *Scheduler) rehomeDeps(t *task) {
	for i := range t.deps {
		d := &t.deps[i]
		if d.res == nil || d.res.owner == s {
			continue
		}
		f := d.fut
		f.mu.Lock()
		host, err := f.materializeLocked()
		f.releaseRefLocked()
		f.mu.Unlock()
		if err != nil {
			// Value lost (e.g. download panic); the chain executor
			// reports it as the job error.
			t.deps[i] = depRes{fut: f}
			continue
		}
		t.deps[i] = depRes{fut: f, host: host}
	}
}

// hostInputs returns the job's host-side input ciphertexts in upload
// order: declared Inputs first, then host-fallback dependency values.
// Device-resident dependencies contribute nothing (they move zero
// bytes); spliceIns re-inserts them after the gathered upload.
func (t *task) hostInputs() []*ckks.Ciphertext {
	if len(t.deps) == 0 {
		return t.job.Inputs
	}
	hosts := append([]*ckks.Ciphertext(nil), t.job.Inputs...)
	for _, d := range t.deps {
		if d.res == nil && d.host != nil {
			hosts = append(hosts, d.host)
		}
	}
	return hosts
}

// spliceIns rebuilds the task's device value-list prefix from the
// gathered-upload results (devs, in hostInputs order), splicing
// borrowed aliases of device-resident dependencies into their value
// slots and collecting their producer events into evs.
func (t *task) spliceIns(devs []*core.Ciphertext, evs *[]gpu.Event) []*core.Ciphertext {
	if len(t.deps) == 0 {
		return devs
	}
	ins := make([]*core.Ciphertext, 0, len(t.job.Inputs)+len(t.deps))
	ins = append(ins, devs[:len(t.job.Inputs)]...)
	rest := devs[len(t.job.Inputs):]
	for _, d := range t.deps {
		if d.res != nil {
			*evs = append(*evs, d.res.evs...)
			ins = append(ins, core.Borrow(d.res.ct))
			continue
		}
		if d.host == nil {
			// Value lost during migration: keep the slot nil; the chain
			// will fail on it with a clear panic-wrapped error.
			ins = append(ins, nil)
			continue
		}
		ins = append(ins, rest[0])
		rest = rest[1:]
	}
	return ins
}

// downloadResident copies a device-resident output back to the host
// through the scheduler's lazily created materialization context (the
// workers' contexts belong to their goroutines).
func (s *Scheduler) downloadResident(r *residentOutput) (out *ckks.Ciphertext, err error) {
	s.matMu.Lock()
	defer s.matMu.Unlock()
	defer func() {
		if rec := recover(); rec != nil {
			err = wrapPanic("resident output download", rec)
		}
	}()
	if s.matCtx == nil {
		s.matCtx = s.workerContext(0)
	}
	s.matCtx.PipelineAfter(r.evs...)
	return s.matCtx.Download(core.Borrow(r.ct)), nil
}

// failTask completes a task that never reached a worker (its producers
// failed, or no shard could take it): the future finishes with the
// error, references on surviving producers are released, and the job is
// counted by the same jobDone as one that ran.
func (s *Scheduler) failTask(t *task, err error) {
	t.fut.finish(err)
	s.releaseDeps(t)
	s.jobDone(nil, t, true, 1, s.dev.SimulatedSeconds())
}
