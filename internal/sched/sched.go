package sched

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xehe/internal/ckks"
	"xehe/internal/core"
	"xehe/internal/gpu"
	"xehe/internal/memcache"
	"xehe/internal/obs"
	"xehe/internal/qos"
	"xehe/internal/sycl"
)

// ErrClosed is returned by Submit after Close has been called.
var ErrClosed = errors.New("sched: scheduler is closed")

// ErrShardLost is the terminal error of jobs that were in flight on a
// killed shard and could not be replayed: no healthy shard remained.
// Jobs are never silently dropped on a kill — they either replay
// bit-identically elsewhere or fail with this error.
var ErrShardLost = errors.New("sched: shard killed mid-flight with no healthy shard to replay on")

// ErrOverloaded is returned by Submit when the job's class has
// exhausted its admission share of the pending queue (qos.Class.Share
// < 1): the scheduler sheds the job instead of queueing it behind a
// backlog that already guarantees a blown latency target. Classes
// with a full share block instead (plain backpressure).
var ErrOverloaded = errors.New("sched: class queue share exhausted")

// Config tunes the scheduler. The zero value of any field selects a
// sensible default.
type Config struct {
	// Workers is the size of the goroutine pool; each worker owns one
	// queue pinned to tile (worker mod tiles). Default: the device's
	// tile count.
	Workers int
	// MaxBatch caps how many same-shape jobs are coalesced into one
	// batch. Default 8; 1 ships every job alone (a batch of one runs the
	// same pipeline, it just shares its launches with nobody).
	MaxBatch int
	// Trace turns on span-based job-lifecycle tracing (internal/obs):
	// submit→queue→batch→H2D→per-step→D2H→settle spans recorded into
	// bounded per-worker ring buffers, exported together with the
	// device command timelines by WriteTrace. Off by default; when off
	// the span sites are single nil checks and allocate nothing.
	Trace TraceConfig
	// PendingCap bounds the dispatcher's pending queue — the jobs
	// accepted but not yet pulled by a worker, i.e. the pool the QoS
	// policy reorders. Class admission shares are fractions of this
	// capacity. Default: Workers*pendingBatchesPerWorker*MaxBatch.
	PendingCap int
	// WarmBuffers pre-populates the shared buffer cache with this many
	// working-set-sized buffers at construction, so the steady-state
	// pipeline never pays a driver allocation (cold-start allocations
	// synchronize with in-flight work and serialize the pipeline at
	// high worker counts). 0 disables pre-warming; it is also a no-op
	// when Core.MemCache is off.
	WarmBuffers int
	// Classes is the QoS class table jobs reference by Job.Class.
	// nil selects qos.DefaultClasses() (Interactive/Batch/Background).
	Classes []qos.Class
	// Policy builds the dispatch policy deciding which class's
	// backlog runs next. nil selects qos.WFQ (weighted fair queuing).
	Policy qos.Factory
	// Aging is the starvation-protection window in simulated seconds:
	// a class whose head job has waited this long overrides the
	// policy's pick. 0 selects qos.DefaultAging; negative disables.
	Aging float64
	// Core configures the per-worker backend contexts (NTT variant,
	// inline assembly, memory cache, ...). Config.Core.DualTile is
	// ignored: tile parallelism comes from the worker pool itself.
	Core core.Config

	// SelfHeal (cluster only) adds the supervisor to the cluster's
	// control loop: killed shards are auto-replaced — instantly from the
	// warm standby pool when one is available, otherwise by a
	// rate-limited cold rebuild of the dead shard's spec with
	// exponential backoff between attempts. Default off.
	SelfHeal bool
	// Standbys (cluster only) is the size of the warm standby pool the
	// supervisor maintains: pre-built shards (device constructed, cache
	// pre-warmed) that promotion swaps into rotation the moment a shard
	// is killed, skipping the cold construction a reactive AddShard
	// would pay. 0 disables the pool; ignored unless SelfHeal is on.
	Standbys int
	// Retry is the per-job retry budget: transiently failed jobs — a
	// dropped network hop, a shard lost mid-replacement — re-execute on
	// an open shard with exponential backoff priced on the simulated
	// clock, instead of surfacing the error to the caller. The zero
	// value disables retries.
	Retry RetryPolicy
}

// pendingBatchesPerWorker sizes the default PendingCap: room for this
// many full batches per worker.
const pendingBatchesPerWorker = 8

func (c Config) withDefaults(tiles int) Config {
	if c.Workers <= 0 {
		c.Workers = tiles
	}
	if c.Standbys < 0 {
		c.Standbys = 0
	}
	if c.Trace.SpanCap <= 0 {
		c.Trace.SpanCap = 8192
	}
	// The workers need a per-tile copy queue on every context so a
	// batch's gathered copies overlap with its neighbours' compute.
	c.Core.CopyEngine = true
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.PendingCap <= 0 {
		c.PendingCap = c.Workers * pendingBatchesPerWorker * c.MaxBatch
	}
	if c.Classes == nil {
		c.Classes = qos.DefaultClasses()
	}
	if c.Policy == nil {
		c.Policy = qos.WFQ
	}
	if c.Aging == 0 {
		c.Aging = qos.DefaultAging
	}
	return c
}

// ClassStats is the per-class slice of the scheduler counters: a field
// tagged `metric:"<name>"` reads the instrument "<name>.<class>" of the
// metrics snapshot (statsView).
type ClassStats struct {
	Name         string
	Submitted    int64 `metric:"sched.jobs_submitted"`   // jobs admitted by this scheduler's Submit (stolen arrivals count via Stats.StolenIn)
	Completed    int64 `metric:"sched.jobs_completed"`   // jobs finished (including failed)
	Failed       int64 `metric:"sched.jobs_failed"`      // jobs that finished with an error
	Rejected     int64 `metric:"sched.jobs_rejected"`    // jobs shed with ErrOverloaded
	Retried      int64 `metric:"cluster.retry_attempts"` // retry attempts consumed by this class's jobs
	DeadlineHit  int64 `metric:"sched.deadline_hit"`     // jobs that met their deadline
	DeadlineMiss int64 `metric:"sched.deadline_miss"`    // jobs that missed it
	// Batches, MaxBatch and Coalesced break the coalescing counters
	// down per class (batches are formed from a single class's queue,
	// so every batch is attributable): Batches counts batches whose
	// jobs were of this class, MaxBatch is the largest such batch, and
	// Coalesced counts the class's jobs that ran in a batch of size
	// >= 2 — the jobs eligible for the cross-job fusion win.
	Batches   int64 `metric:"sched.batches"`
	MaxBatch  int   `metric:"sched.max_batch"`
	Coalesced int64 `metric:"sched.jobs_coalesced"`
	// TransferBatches counts the gathered H2D/D2H submissions
	// issued for this class's batches (two per batch in steady state —
	// one upload, one download), the per-class view of coalescing
	// effectiveness on the transfer path.
	TransferBatches int64 `metric:"sched.transfer_batches"`
	// P50/P99 are simulated-latency quantiles (seconds from
	// submission to completion on the backend clock) over the
	// completed jobs of the class; 0 when none completed.
	P50, P99 float64
}

// Stats is a typed view over one snapshot of a shard's metrics
// registry, or of the cluster's merge of them (Metrics returns the same
// snapshot untyped); nothing is counted anywhere else. A field tagged
// `metric:"<name>"` reads that instrument. Jobs, Failed, Batches,
// MaxBatch, Coalesced and TransferBatches are derived from the PerClass
// counters of the same snapshot, so each equals the sum (MaxBatch: the
// maximum) of its per-class breakdown in every snapshot, however
// concurrent.
type Stats struct {
	Jobs      int64 `metric:"sched.jobs_completed"` // jobs completed (including failed ones)
	Failed    int64 `metric:"sched.jobs_failed"`    // jobs that finished with an error
	Batches   int64 `metric:"sched.batches"`        // batches executed
	MaxBatch  int   `metric:"sched.max_batch"`      // largest batch observed
	Coalesced int64 `metric:"sched.jobs_coalesced"` // jobs that ran in a batch of size >= 2
	// FusedSteps counts the op-chain steps of batches of two or more
	// jobs (one launch sequence per step, shared), UnfusedSteps the steps
	// of jobs that ran alone (singleton batches, and every job of a batch
	// that was re-run job by job after an execution error). The
	// benchmark reads both (benchmark/serve.go, sched.fused_step_share).
	FusedSteps   int64 `metric:"sched.fused_steps"`
	UnfusedSteps int64 `metric:"sched.unfused_steps"`
	// TransferBatches counts gathered transfer submissions: each is one
	// gathered H2D upload or one scattered D2H download covering a whole
	// batch. BytesH2D/BytesD2H are the bytes they moved, so
	// BytesH2D/TransferBatches exposes the mean gathered-transfer size —
	// the coalescing effectiveness of the transfer path.
	TransferBatches int64   `metric:"sched.transfer_batches"`
	BytesH2D        int64   `metric:"sched.bytes_h2d"`
	BytesD2H        int64   `metric:"sched.bytes_d2h"`
	PerWorker       []int64 // worker.jobs.<i>
	PerClass        []ClassStats
	StolenIn        int64 `metric:"sched.stolen_in"`  // jobs migrated in (placed off another shard, or returned)
	StolenOut       int64 `metric:"sched.stolen_out"` // jobs taken off this scheduler's queues
	CacheHits       int64 `metric:"memcache.hits"`
	CacheMisses     int64 `metric:"memcache.misses"`
	// GraphJobs counts jobs submitted with at least one dependency
	// input (Job.InputFrom). ResidentHits counts dependency edges
	// resolved against a device-resident producer output (zero PCIe
	// traffic for the edge); ResidentMisses counts edges that fell back
	// to host rematerialization — producer on another shard, output
	// already host-side, or a migration mid-graph.
	GraphJobs      int64 `metric:"sched.graph_jobs"`
	ResidentHits   int64 `metric:"sched.resident_hits"`
	ResidentMisses int64 `metric:"sched.resident_misses"`
}

// Future is the pending result of a submitted job. It doubles as the
// graph handle: later jobs reference its output via Job.InputFrom, and
// a consumed output stays device-resident until its last consumer
// finishes (graph.go holds the residency machinery).
type Future struct {
	done chan struct{}
	res  *ckks.Ciphertext
	err  error

	// Graph state, guarded by mu (see graph.go).
	mu        sync.Mutex
	sub       bool            // job submitted; meta valid
	keep      bool            // Job.KeepOutput: download even when consumed
	meta      valueMeta       // output (level, scale) from the admission trace
	consumers int             // consumers registered before settlement
	settled   bool            // output fate decided (resident / host / error)
	resident  *residentOutput // device-resident output, nil unless consumers exist
	waiters   []func()        // dependency callbacks, run after completion
	shard     int32           // cluster affinity hint (-1 when unknown)
}

// Wait blocks until the job has run and returns its output ciphertext
// or execution error. If the output was left device-resident for
// consumers (no KeepOutput), Wait materializes it with an on-demand
// download while the residency is alive and returns
// ErrResultDiscarded after the last consumer released it.
func (f *Future) Wait() (*ckks.Ciphertext, error) {
	<-f.done
	if f.err != nil {
		return nil, f.err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.materializeLocked()
}

// Done returns a channel closed when the result is available.
func (f *Future) Done() <-chan struct{} { return f.done }

// task is one queued job. enq and deadline are absolute simulated
// seconds on the owning backend's clock while a scheduler holds the
// task, and relative (elapsed wait / remaining budget) while it is
// between schedulers: detach and attach are the only conversion.
type task struct {
	job      *Job
	fut      *Future
	class    int
	enq      float64
	deadline float64
	shape    string  // the job's ShapeKey: same-shape tasks may share a batch
	disp     float64 // dispatch stamp (Scheduler.dispatched), simulated seconds
	bid      int64   // batch sequence number assigned at dispatch

	// Dependency state (jobs with InputFrom edges). deps is parallel to
	// job.Deps; entries are written under the scheduler's qmu as
	// producers settle (or by migration, which owns the task
	// exclusively) and read by the worker after dispatch. waitN counts
	// unresolved producers (qmu); depErr records the first failed one.
	deps   []depRes
	waitN  int
	depErr error

	// Retry state: attempt is the retries consumed so far, retryErr the
	// error of the latest failed attempt (the one the caller sees if
	// the budget runs out). Written by the single goroutine that owns
	// the task at each point of its life (worker, retry loop,
	// migration), never concurrently.
	attempt  int
	retryErr error
}

// detach takes the task off a clock reading now: enq becomes the wait
// already served and deadline the remaining budget (negative once
// missed), so both survive a hop to a shard whose clock reads something
// else. No deadline (+Inf) is a fixed point of both conversions.
func (t *task) detach(now float64) {
	t.enq = now - t.enq
	t.deadline -= now
}

// attach is detach's inverse on the receiving clock: the wait served
// counts back from now and the remaining budget forward from it.
func (t *task) attach(now float64) {
	t.enq = now - t.enq
	t.deadline += now
}

// work is the routing cost estimate of the task's job: uploads plus
// kernel-chain ops. The cluster's expected-wait router divides the
// outstanding sum by the device weight.
func (t *task) work() float64 {
	return float64(len(t.job.Inputs) + len(t.job.Deps) + len(t.job.Ops))
}

// latWindowCap bounds the per-class latency sample window: quantiles
// are computed over the most recent completions, so a long-running
// service neither grows without bound nor slows Stats() down.
const latWindowCap = 8192

// latWindow is a bounded ring of the most recent latency samples.
type latWindow struct {
	buf  []float64
	next int // overwrite position once the buffer is full
}

func (w *latWindow) add(v float64) {
	if w.buf == nil {
		w.buf = make([]float64, 0, latWindowCap)
	}
	if len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, v)
		return
	}
	w.buf[w.next] = v
	w.next = (w.next + 1) % len(w.buf)
}

// samples copies the window (unordered; quantiles don't care).
func (w *latWindow) samples() []float64 {
	return append([]float64(nil), w.buf...)
}

func (w *latWindow) reset() {
	w.buf = w.buf[:0]
	w.next = 0
}

// Scheduler multiplexes independent HE jobs over a worker pool on one
// simulated device, whose buffer cache its workers share. Every
// scheduler is one shard of a Cluster, which builds it (newShard), and
// carries the shard's routing, lifecycle and fault state itself. Jobs
// are held in per-class queues until a worker pulls its next
// batch, and a qos.Policy picks the class then, so a late-arriving
// interactive job can overtake a queued batch backlog. All methods are safe for
// concurrent use.
type Scheduler struct {
	params  *ckks.Parameters
	dev     *gpu.Device
	cache   *memcache.Cache
	cfg     Config
	rlk     *ckks.RelinKey
	gks     map[int]*ckks.GaloisKey
	classes []qos.Class

	// qmu guards d, quit, batchSeq and the tasks' dependency state.
	// Workers take their batches under it (pull); an idle worker sleeps
	// on idle, which every arrival signals, so no idle worker waits on a
	// queued job. qcond signals queue space freed (blocking Submit,
	// Close). quit, set by Close once nothing is pending, lets the idle
	// workers exit.
	qmu      sync.Mutex
	qcond    *sync.Cond
	idle     *sync.Cond
	quit     bool
	d        *dispatcher
	batchSeq int64 // numbers pulled batches for attribution

	workers []*worker
	workWg  sync.WaitGroup

	mu        sync.RWMutex // guards closed vs in-flight Submit/inject
	closed    bool
	closeDone chan struct{} // closed once teardown has fully completed

	// latency holds the per-class simulated-latency samples P50/P99 are
	// computed from — the one piece of accounting that is not an
	// instrument, because the quantiles are exact over the samples.
	latMu   sync.Mutex
	latency []latWindow

	// Observability (obs.go): met is the always-on metrics registry,
	// the only place an event is counted (Stats is a view over it);
	// tracer is nil unless Config.Trace is enabled. queueTracks interns
	// the per-class queue track names so span recording never
	// allocates.
	met         *schedMetrics
	tracer      *obs.Tracer
	queueTracks []string

	outMu       sync.Mutex
	outCond     *sync.Cond
	outstanding int
	outWork     float64 // work units of outstanding jobs (routing signal)

	// matMu guards the lazily created materialization context used to
	// download device-resident outputs on demand (Future.Wait on a
	// consumed output, cross-shard rematerialization).
	matMu  sync.Mutex
	matCtx *core.Context

	// The shard: the owning cluster (which takes surrendered tasks,
	// recoverTasks, and transiently failed ones, offerRetry), the index
	// in its snapshot (-1 until published), the spec it was built from
	// (building it again is a replacement) and its routing weight. None
	// changes once the scheduler is routable (publishShard sets id).
	c      *Cluster
	id     int
	spec   ShardSpec
	weight float64

	// life holds the shardState; on (cluster.go) is its only writer.
	// Once it reads killed, the scheduler is in surrender mode —
	// dispatch keeps flowing, but workers hand batches back to the
	// cluster (recoverTasks) instead of executing them (the device stays
	// readable: the node lost its executor, not its memory, so resident
	// outputs still materialize through the owner path), and
	// Submit/injectTasks refuse new work like a closed scheduler.
	life atomic.Uint32

	// Fault-plane budgets, consumed rather than entered and left: sick
	// is the health-probe sickness budget the link faults mark (each
	// failed probe consumes one unit), killAfter the armed
	// batches-until-kill countdown (0 = disarmed).
	sick      atomic.Int64
	killAfter atomic.Int64

	// onBatch fires after each batch-start accounting: the fault plane's
	// deterministic mid-batch kill point (maybeKill). Tests that park
	// workers replace it before their first Submit.
	onBatch func()

	// resMu guards residents, the live device-resident outputs this
	// scheduler owns (settleOutput registers, releaseRefLocked and
	// DrainShard's migration deregister). Leaf lock: acquired with
	// f.mu held, takes nothing itself.
	resMu     sync.Mutex
	residents map[*Future]struct{}
}

type worker struct {
	id  int
	ctx *core.Context

	// Tracing state (nil / "" when Config.Trace is off): the worker's
	// span ring, its interned track name, and the step-trace handle
	// threaded into the chain executors.
	ring  *obs.Ring
	track string
	tr    *stepTrace
}

// newShard is the one place a shard comes into being — for the
// constructor, AddShard, standby stocking and cold repair alike: a
// fresh simulated device of the spec's model, which the scheduler owns
// from here on (Close releases the buffer cache built over it); the
// spec's hop converted to device cycles once (the device then charges
// it on every crossing without the scheduler knowing the shard is
// remote; the zero link prices nothing); and a scheduler on it with
// c's parameters, config and relinearization key and its own replica of
// the Galois-key table. It is born a standby: publishing it (the
// constructor, publishShard) is what opens it.
func (c *Cluster) newShard(id int, spec ShardSpec) *Scheduler {
	dev := gpu.NewDevice(spec.Device)
	cyclesPerSec := dev.Spec.ClockGHz * 1e9
	dev.SetLink(spec.Link.LatencySeconds*cyclesPerSec, max(spec.Link.GBps, 0)*1e9/cyclesPerSec)
	gks := make(map[int]*ckks.GaloisKey, len(c.gks))
	for k, v := range c.gks {
		gks[k] = v
	}
	cfg := c.cfg.withDefaults(dev.Spec.Tiles)
	cfg.Core.DualTile = false // parallelism comes from the pool
	s := &Scheduler{
		params:    c.params,
		dev:       dev,
		cache:     core.NewCache(dev, cfg.Core),
		cfg:       cfg,
		rlk:       c.rlk,
		gks:       gks,
		classes:   cfg.Classes,
		d:         newDispatcher(cfg),
		closeDone: make(chan struct{}),
		c:         c,
		id:        id,
		spec:      spec,
		weight:    gpu.ClusterWeight(&dev.Spec),
	}
	s.onBatch = s.maybeKill
	s.qcond = sync.NewCond(&s.qmu)
	s.idle = sync.NewCond(&s.qmu)
	// Pre-warm the buffer pool before any worker can race a cold
	// allocation against in-flight work. The largest buffers the
	// pipeline requests hold level+2 RNS components (the key-switch
	// accumulators: full chain + special component); best-fit reuse
	// lets every smaller request ride the same pool.
	if cfg.WarmBuffers > 0 {
		s.cache.Warm(cfg.WarmBuffers, (s.params.MaxLevel()+2)*s.params.N)
	}
	s.outCond = sync.NewCond(&s.outMu)
	s.latency = make([]latWindow, len(s.classes))
	for _, cl := range s.classes {
		s.queueTracks = append(s.queueTracks, "queue "+cl.Name)
	}
	s.met = newSchedMetrics(s.classes, cfg.Workers, s.cache, s.TraceCounts)
	if cfg.Trace.Enabled {
		s.tracer = obs.NewTracer(ringWorker0+cfg.Workers, cfg.Trace.SpanCap)
		// The device command trace feeds the tile compute/copy tracks
		// of the exported timeline.
		dev.EnableTrace()
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{id: i, ctx: s.workerContext(i)}
		if s.tracer != nil {
			w.ring = s.tracer.Ring(ringWorker0 + i)
			w.track = fmt.Sprintf("worker %d", i)
			w.tr = &stepTrace{s: s, ring: w.ring, track: w.track}
		}
		s.workers = append(s.workers, w)
		s.workWg.Add(1)
		go s.runWorker(w)
	}
	return s
}

// Device returns the simulated device the scheduler runs on.
func (s *Scheduler) Device() *gpu.Device { return s.dev }

// Cache returns the device-wide buffer cache the workers share.
func (s *Scheduler) Cache() *memcache.Cache { return s.cache }

// workerContext mints the private core context of worker id: an
// in-order queue on tile id mod Tiles, sharing the scheduler's buffer
// cache. With more than one worker the queue is part of an explicit
// multi-queue set and pays the per-submission multi-queue tax
// (Section III-C.2).
func (s *Scheduler) workerContext(id int) *core.Context {
	cfg := s.cfg.Core
	q := sycl.NewQueueOnTile(s.dev, id%s.dev.Spec.Tiles, cfg.Codegen(), s.cfg.Workers > 1)
	if cfg.Blocking {
		q.Raw().SetBlocking(true)
	}
	return core.NewContextOn(s.params, s.dev, cfg, []*sycl.Queue{q}, s.cache)
}

// validate checks the job against the scheduler's parameters, key
// material and class table, returning the traced value metas (the last
// entry is the job's output meta, recorded on its future for
// downstream consumers).
func (s *Scheduler) validate(job *Job) ([]valueMeta, error) {
	metas, err := job.trace(s.params)
	if err != nil {
		return nil, err
	}
	if job.Class < 0 || int(job.Class) >= len(s.classes) {
		return nil, fmt.Errorf("sched: job class %d out of range (scheduler has %d classes)", job.Class, len(s.classes))
	}
	for i, op := range job.Ops {
		if op.Code == OpRotate {
			if _, ok := s.gks[op.K]; !ok {
				return nil, fmt.Errorf("sched: op %d rotates by %d but the scheduler has no Galois key for it", i, op.K)
			}
		}
	}
	return metas, nil
}

// Submit validates and enqueues a job, returning a Future for its
// result. Jobs wait in their class's queue until the dispatch policy
// picks them. When the class's queue share is exhausted, Submit
// blocks for full-share classes (backpressure) and returns
// ErrOverloaded for partial-share ones (load shedding); it returns
// ErrClosed after Close.
func (s *Scheduler) Submit(job *Job) (*Future, error) {
	metas, err := s.validate(job)
	if err != nil {
		return nil, err
	}
	class := int(job.Class)
	t := &task{job: job, fut: newFuture(), class: class, shape: job.ShapeKey()}
	adm := s.spanBegin()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed || s.Killed() {
		return nil, ErrClosed
	}
	// The future becomes a graph handle the moment Submit returns:
	// record the traced output meta (consumer validation reads it) and
	// the retention flag before the job can possibly settle.
	t.fut.markSubmitted(metas[len(metas)-1], job.keep)
	// Count the job outstanding before it becomes visible to the
	// dispatcher: once enqueued it can be dispatched and completed at
	// any moment, and a late increment would let a concurrent Drain
	// observe a zero counter with work still in flight.
	s.outMu.Lock()
	s.outstanding++
	s.outWork += t.work()
	s.outMu.Unlock()
	s.qmu.Lock()
	// Admission control applies to dependency-free jobs only: a graph
	// consumer was admitted together with its producers (rejecting or
	// blocking it mid-graph would wedge work the producers already
	// paid for), so it bypasses the class share like a stolen arrival.
	if len(job.Deps) == 0 && s.d.full(class) {
		if s.d.rejects[class] {
			s.qmu.Unlock()
			s.outstandingAdd(-1, -t.work())
			s.met.class[class].rejected.Add(1)
			s.spanEnd(s.obsRing(ringSubmit), adm, trkSubmit, "reject", catAdmit, s.className(class), 0, 1)
			return nil, ErrOverloaded
		}
		for s.d.full(class) {
			s.qcond.Wait() // backpressure; a pull frees space
		}
	}
	s.d.stamp(t, s.dev.SimulatedSeconds())
	if len(job.Deps) == 0 {
		s.arriveLocked(t)
	} else {
		// Parked until every producer settles; depReady moves it into
		// its class queue (or fails it) when the last one does.
		s.d.waiting++
	}
	s.qmu.Unlock()
	s.met.class[class].submitted.Add(1)
	if len(job.Deps) > 0 {
		s.met.graphJobs.Add(1)
		s.registerDeps(t)
	}
	s.spanEnd(s.obsRing(ringSubmit), adm, trkSubmit, "submit", catAdmit, s.className(class), 0, 1)
	return t.fut, nil
}

// Drain blocks until every job submitted so far has completed. It does
// not close the scheduler; new jobs may be submitted concurrently (in
// which case Drain waits for those too).
func (s *Scheduler) Drain() {
	s.outMu.Lock()
	for s.outstanding > 0 {
		s.outCond.Wait()
	}
	s.outMu.Unlock()
}

// Close stops intake, waits for all pending jobs to finish, tears down
// the pool and releases the buffer cache. It is idempotent, and every
// call — including concurrent ones — returns only after the teardown
// has fully completed.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.closeDone // another Close is tearing down; wait for it
		return
	}
	s.closed = true
	s.mu.Unlock()
	// Nothing new arrives now but the jobs parked on dependencies, whose
	// producers (possibly on other shards) complete before their own
	// schedulers tear down. Once those have been pulled too, the workers
	// finish what they hold and exit.
	s.qmu.Lock()
	for s.d.pending() > 0 {
		s.qcond.Wait()
	}
	s.quit = true
	s.idle.Broadcast()
	s.qmu.Unlock()
	s.workWg.Wait()
	// Release reclaims orphans too (ReleaseAll under the hood): a
	// panicking op may have stranded its internal allocations in the
	// used pool with no handle to free them through; all workers have
	// stopped, so anything still checked out is such an orphan.
	s.cache.ReleaseAll()
	close(s.closeDone)
}

// Outstanding returns the number of submitted jobs that have not yet
// completed. The cluster router uses it as the shard load signal.
func (s *Scheduler) Outstanding() int64 {
	s.outMu.Lock()
	defer s.outMu.Unlock()
	return int64(s.outstanding)
}

// OutstandingWork returns the work units (uploads + ops) of the jobs
// that have not yet completed — the expected-wait signal of the
// cluster's latency-sensitive routing.
func (s *Scheduler) OutstandingWork() float64 {
	s.outMu.Lock()
	defer s.outMu.Unlock()
	return s.outWork
}

// QueuedJobs returns the jobs waiting in the class queues (accepted
// but not yet dispatched to a worker) — the work-stealing signal.
// Dependency-parked jobs are not included; they are not stealable.
func (s *Scheduler) QueuedJobs() int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.d.queued
}

// outstandingAdd moves outstanding-job accounting: one job done, or a
// group of tasks changing shards.
func (s *Scheduler) outstandingAdd(jobs int, work float64) {
	s.outMu.Lock()
	s.outstanding += jobs
	s.outWork += work
	if s.outstanding == 0 {
		s.outCond.Broadcast()
	}
	s.outMu.Unlock()
}

// ResetClocks zeroes the device's simulated clocks together with the
// QoS state derived from them — the monotonic enqueue-stamp floor and
// the per-class latency samples — so steady-state measurement after a
// warm-up starts from a clean timeline (stale stamps would force
// post-reset enqueues into the future, fabricating zero latencies and
// spurious deadline hits). Counter totals are preserved. Call it only
// while the scheduler is idle.
func (s *Scheduler) ResetClocks() {
	s.dev.ResetClocks()
	s.qmu.Lock()
	s.d.lastEnq = 0
	s.qmu.Unlock()
	s.latMu.Lock()
	for i := range s.latency {
		s.latency[i].reset()
	}
	s.latMu.Unlock()
}

// classLatencies copies the per-class simulated-latency samples (the
// cluster merges shard samples before computing quantiles).
func (s *Scheduler) classLatencies() [][]float64 {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	out := make([][]float64, len(s.latency))
	for i := range s.latency {
		out[i] = s.latency[i].samples()
	}
	return out
}

// quantiles returns the nearest-rank p50 and p99 of the samples, which
// it sorts in place (every caller hands it a copy of the windows).
func quantiles(sorted []float64) (p50, p99 float64) {
	if len(sorted) == 0 {
		return 0, 0
	}
	sort.Float64s(sorted)
	rank := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	return rank(0.50), rank(0.99)
}

// arriveLocked queues t and wakes an idle worker to pull it. Caller
// holds qmu.
func (s *Scheduler) arriveLocked(t *task) {
	s.d.arrive(t)
	s.idle.Signal()
}

// pull is the worker's side of dispatch, called at its two decision
// points: the loop head, where wait says it has nothing in flight and
// may sleep until a job is queued, and the prefetch. It returns the
// batch the dispatcher cuts for w now (dispatcher.next), or nil:
// nothing for w yet, or, when waiting, the scheduler has closed with
// nothing left to run.
func (s *Scheduler) pull(w *worker, wait bool) []*task {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	for {
		if s.d.queued > 0 {
			now := s.dev.SimulatedSeconds()
			if sh, ok := s.d.next(w.id, now); ok {
				s.dispatched(sh, now)
				s.qcond.Broadcast() // queue space freed: blocked Submits and Close look again
				return sh.batch
			}
		}
		if !wait || s.quit {
			return nil
		}
		// Attribute the wait: with nothing queued the worker sits idle
		// for want of work (wall clock; the simulated clock does not
		// tick while the host blocks).
		idle := time.Now()
		s.idle.Wait()
		s.met.idleEmptyNS.Add(time.Since(idle).Nanoseconds())
	}
}

// dispatched accounts a pulled batch: every task gets its batch id and
// dispatch stamp (the service-time baseline), and its queueing delay
// lands in the per-class histogram. The enqueue stamp can sit a hair
// ahead of the simulated clock (monotonicity epsilon), so clamp. Caller
// holds qmu.
func (s *Scheduler) dispatched(sh ship, now float64) {
	s.batchSeq++
	bid := s.batchSeq
	for _, t := range sh.batch {
		t.bid = bid
		t.disp = now
		s.met.class[sh.class].queueDelay.Observe(max(now-t.enq, 0))
	}
	if s.tracer != nil {
		ring := s.tracer.Ring(ringDispatch)
		wall := time.Now().UnixNano()
		cls := s.className(sh.class)
		for _, t := range sh.batch {
			ring.Record(obs.Span{Track: s.queueTracks[sh.class], Name: "pending", Cat: catQueue,
				Class: cls, Start: min(t.enq, now), End: now, Wall: wall, Batch: bid})
		}
		ring.Record(obs.Span{Track: trkDispatch, Name: "batch", Cat: catQueue,
			Class: cls, Start: now, End: now, Wall: wall, Batch: bid, Jobs: len(sh.batch)})
	}
}

// finished lets go of jobs a worker held: settled, handed to the retry
// plane or surrendered.
func (s *Scheduler) finished(w *worker, jobs int) {
	s.qmu.Lock()
	s.d.finished(w.id, jobs)
	s.qmu.Unlock()
}

// stealQueued removes up to max queued tasks for migration to another
// shard (dispatcher.steal picks them). The tasks come back detached
// (relative stamps); outstanding accounting stays with this scheduler
// until the caller transfers it.
func (s *Scheduler) stealQueued(max int) []*task {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	out := s.d.steal(max)
	if len(out) == 0 {
		return nil
	}
	now := s.dev.SimulatedSeconds()
	for _, t := range out {
		t.detach(now)
	}
	s.met.stolenOut.Add(int64(len(out)))
	s.qcond.Broadcast()
	return out
}

// injectTasks enqueues detached tasks, attaching them to this backend's
// clock, and takes over their outstanding accounting from the scheduler
// that has held it since they left its queue or workers (from may be s
// itself: tasks coming home). Admission control is bypassed — the jobs
// were admitted at their original shard. It returns false when the
// scheduler is closed or killed (nothing is enqueued or transferred;
// the caller must re-home the tasks).
func (s *Scheduler) injectTasks(ts []*task, from *Scheduler) bool {
	if len(ts) == 0 {
		return true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed || s.Killed() {
		return false
	}
	// Migrated tasks lose producer locality: any dependency resolved
	// against a residency on another shard is rematerialized host-side
	// now, so the destination worker uploads it like a plain input.
	for _, t := range ts {
		s.rehomeDeps(t)
	}
	now := s.dev.SimulatedSeconds()
	var work float64
	s.qmu.Lock()
	for _, t := range ts {
		t.attach(now)
		s.arriveLocked(t)
		work += t.work()
	}
	s.qmu.Unlock()
	// StolenIn tracks the migration — by origin: placed here off another
	// shard, or returned to the shard they left — and Submitted stays
	// with the shard that admitted the job, so cluster aggregates keep
	// Submitted == Completed after a drain.
	if from != s {
		s.met.placedIn.Add(int64(len(ts)))
		// Counted here before it is released there: a job in transit is
		// double-counted, never dropped, so Drain cannot slip past it.
		s.outstandingAdd(len(ts), work)
		from.outstandingAdd(-len(ts), -work)
	} else {
		s.met.returned.Add(int64(len(ts)))
	}
	return true
}

// Killed reports whether the scheduler's shard has been fail-stopped.
func (s *Scheduler) Killed() bool { return s.state() >= stateKilled }

// surrender hands tasks a killed scheduler will not run back for
// replay, releasing the worker's share of them: they detach and go to
// the cluster (recoverTasks), which relocates them onto a healthy shard
// or fails them — they are never silently dropped, so Drain and Close
// cannot wedge on a kill. Outstanding accounting stays with this
// scheduler until the cluster transfers it, exactly like a steal.
func (w *worker) surrender(s *Scheduler, ts []*task) {
	s.finished(w, len(ts))
	s.met.surrendered.Add(int64(len(ts)))
	now := s.dev.SimulatedSeconds()
	for _, t := range ts {
		t.detach(now)
	}
	s.c.recoverTasks(s, ts)
}

// abandon is where a detached task ends when no shard can take it: it
// comes back onto this scheduler's clock for the failure accounting and
// fails with its own last execution error — what the caller would have
// seen without retries — or, having none, with ErrShardLost.
func (s *Scheduler) abandon(t *task) {
	t.attach(s.dev.SimulatedSeconds())
	err := t.retryErr
	if err == nil {
		err = ErrShardLost
	}
	s.failTask(t, err)
}

// staged is one job of a batch on the device. vals is its value list:
// the uploaded inputs (upload), then every intermediate and the result
// (run). out is set when the result's ownership moved to a device
// residency (settleOutput): it is then absent from vals so the uniform
// free path skips it, while downloads (KeepOutput) still reach it.
type staged struct {
	t    *task
	vals []*core.Ciphertext // inputs + intermediates, in value-list order
	out  *core.Ciphertext   // result retained device-resident, if any
	err  error
	// retry marks a failed job whose error settleOutput judged
	// transient with budget remaining: the future was left unsettled
	// and resolve offers the task to the cluster's retry plane instead
	// of finishing it.
	retry bool
}

// batch is one pulled batch on its way through a worker (runWorker):
// take, upload, run, download, resolve.
type batch struct {
	jobs []staged    // one per task, in dispatch order
	up   gpu.Event   // the gathered upload's copy event: every chain depends on it
	deps []gpu.Event // producer events of the borrowed device-resident dependencies
	down gpu.Event   // the scattered download's copy event, waited out by resolve
	// done is the completion stamp on the simulated clock, captured when
	// the download was submitted: the in-order timelines already extend
	// to the batch's completion then, while resolve runs only after the
	// NEXT batch's kernels are in flight — reading the clock there would
	// charge this batch's latency (and deadline outcomes) with the next
	// batch's compute.
	done float64
}

// wrapPanic formats a recovered panic value as a job error. Panics
// that carry an error — the gpu link fault plane panics with a wrapped
// gpu.ErrLinkFault — keep their chain (%w), so errors.Is sees through
// the worker's recover and the retry plane can classify the failure as
// transient.
func wrapPanic(what string, r interface{}) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("sched: %s panicked: %w", what, err)
	}
	return fmt.Errorf("sched: %s panicked: %v", what, r)
}

// result returns the job's output ciphertext (the last value, or the
// retained residency once settled).
func (sj *staged) result() *core.Ciphertext {
	if sj.out != nil {
		return sj.out
	}
	return sj.vals[len(sj.vals)-1]
}

// runWorker is the worker loop, and the only one: each batch's inputs
// arrive in one gathered H2D submission, its chain runs as one
// launch sequence per op-chain step for the whole batch (chain.go),
// and its results leave in one scattered D2H, both copies on the tile's
// copy engine. A job that runs alone is a batch of one on the same
// path. The worker takes each batch from the dispatcher when it can
// start it next, at two points: the loop head, and the prefetch while
// it holds the current batch. It double-buffers one batch deep in both
// directions — a prefetched batch's inputs upload while the current
// batch computes, and the current batch's download is waited on only
// after the next batch's kernels have been submitted, so neither
// transfer direction blocks a launch. With nothing to take there is
// nothing to overlap with, and the in-flight download resolves before
// the worker sleeps (sleeping with unresolved futures would wedge
// Drain).
func (s *Scheduler) runWorker(w *worker) {
	defer s.workWg.Done()
	var next *batch // inputs in flight on the copy engine
	var pend *batch // results in flight on the copy engine
	for {
		cur := next
		for cur == nil {
			// Sleep for work only with no download in flight.
			if cur = w.take(s, pend == nil); cur != nil {
				break
			}
			if pend == nil {
				return // closed
			}
			w.resolve(s, pend)
			pend = nil
		}
		// Prefetch: put the next batch's inputs on the copy engine now —
		// they transfer while cur computes.
		next = w.take(s, false)
		// Count the batch started up front (batches are cut from a single
		// class's queue, so the attribution is exact): jobDone on its last
		// job releases Drain, and Stats() must already see it then.
		t, n := cur.jobs[0].t, len(cur.jobs)
		s.met.class[t.class].batches.Add(1)
		s.met.class[t.class].maxBatch.Observe(int64(n))
		s.onBatch()
		est := s.spanBegin()
		fused := w.run(s, cur)
		s.spanEnd(w.ring, est, w.track, "exec", catExec, s.className(t.class), t.bid, n)
		// Steps are fused when one launch sequence per step served two or
		// more jobs, unfused when each job paid its own (singleton batches
		// and job-by-job re-runs).
		if steps := int64(len(t.job.Ops)); fused {
			s.met.fusedSteps.Add(steps)
		} else {
			s.met.unfusedSteps.Add(steps * int64(n))
		}
		if !w.download(s, cur) {
			cur = nil // surrendered
		}
		if pend != nil {
			// Waited only now — after cur's kernels (and next's upload)
			// were submitted — so the previous batch's D2H overlapped
			// with this batch's compute.
			w.resolve(s, pend)
		}
		pend = cur
	}
}

// take is a batch's intake: the tasks the dispatcher cuts for w now
// (pull, which sleeps for them when wait says so), uploaded. It is the
// first of the two kill checkpoints: a killed shard's worker hands what
// it pulled back for replay before anything uploads, and pulls again.
// nil means nothing to take.
func (w *worker) take(s *Scheduler, wait bool) *batch {
	for {
		ts := s.pull(w, wait)
		if ts == nil {
			return nil
		}
		if s.Killed() {
			w.surrender(s, ts)
			continue
		}
		b := &batch{jobs: make([]staged, len(ts))}
		for i, t := range ts {
			b.jobs[i].t = t
		}
		w.upload(s, b)
		return b
	}
}

// upload gathers every host input of every job in the batch —
// including host-fallback dependency values — into one gathered H2D
// submission on the copy engine, splicing borrowed device-resident
// dependencies in afterwards (they move zero bytes). A copy lost on
// the wire has stranded nothing (core.UploadBatch returns what it
// allocated) and fails every job of the batch.
func (w *worker) upload(s *Scheduler, b *batch) {
	defer func() {
		if r := recover(); r != nil {
			err := wrapPanic("batch input upload", r)
			for i := range b.jobs {
				b.jobs[i].err = err
			}
		}
	}()
	var hosts []*ckks.Ciphertext
	counts := make([]int, len(b.jobs))
	for i := range b.jobs {
		hs := b.jobs[i].t.hostInputs()
		counts[i] = len(hs)
		hosts = append(hosts, hs...)
	}
	var devs []*core.Ciphertext
	if len(hosts) > 0 {
		t := b.jobs[0].t
		h2d := s.spanBegin()
		var bytes int64
		devs, bytes, b.up = w.ctx.UploadBatch(hosts)
		s.spanEnd(w.ring, h2d, w.track, "h2d", catXfer, s.className(t.class), t.bid, len(b.jobs))
		s.transferDone(t.class, bytes, 0)
	}
	off := 0
	for i := range b.jobs {
		// Cap each job's slice at its own inputs (three-index slice):
		// the chain appends intermediates to these value lists, and an
		// uncapped subslice would clobber the next job's entries.
		b.jobs[i].vals = b.jobs[i].t.spliceIns(devs[off:off+counts[i]:off+counts[i]], &b.deps)
		off += counts[i]
	}
}

// run submits the batch's chain over its uploaded inputs, restoring
// the context's pipeline tail to the batch's own upload event first (a
// prefetched upload for the next batch may have overwritten it). A step
// that panics cannot say which of its jobs broke it, so a failed batch
// of several is re-run job by job through upload and run with batches
// of one, which fails only the offenders, each with an error naming its
// op, at the cost of this batch's shared launches. It reports whether
// the batch ran as one (two or more jobs per launch sequence), for the
// step counters.
func (w *worker) run(s *Scheduler, b *batch) bool {
	if b.jobs[0].err != nil {
		return false // the upload failed every job
	}
	w.ctx.PipelineAfter(b.up)
	w.ctx.DependOn(b.deps...)
	jobs := make([]*Job, len(b.jobs))
	ins := make([][]*core.Ciphertext, len(b.jobs))
	for i := range b.jobs {
		jobs[i], ins[i] = b.jobs[i].t.job, b.jobs[i].vals
	}
	vals, err := evalChain(w.ctx, s.rlk, s.gks, jobs, ins, w.tr)
	if err == nil {
		for i := range b.jobs {
			b.jobs[i].vals = vals[i]
		}
		return len(b.jobs) >= 2
	}
	// The failed chain recycled every value, the uploaded inputs too.
	for i := range b.jobs {
		b.jobs[i].vals = nil
	}
	if len(b.jobs) == 1 {
		b.jobs[0].err = err
		return false
	}
	// Each job uploads its own inputs again from the host — the slow
	// path, paid only when a batch actually breaks.
	for i := range b.jobs {
		one := &batch{jobs: b.jobs[i : i+1]}
		w.upload(s, one)
		w.run(s, one)
	}
	return false
}

// download ships every successful result of the batch in one scattered
// D2H submission on the copy engine, fills the futures' result slots,
// frees the batch's device values and stamps its completion; resolve
// waits on the copy after the next batch's work was submitted. Device
// buffers recycle immediately: the simulator executes the memcpy
// functionally at submission (a real backend would defer the free to
// the event). It is the second kill checkpoint: false means the batch
// was surrendered.
func (w *worker) download(s *Scheduler, b *batch) bool {
	if s.Killed() {
		// Killed mid-batch, before settlement — the point of no return
		// is settleOutput below, so the whole batch can still be
		// surrendered for replay. A kill landing after this check lets
		// the batch publish normally: a job either completes once or
		// replays once, never both.
		ts := make([]*task, len(b.jobs))
		for i := range b.jobs {
			w.freeAll(&b.jobs[i])
			ts[i] = b.jobs[i].t
		}
		w.surrender(s, ts)
		return false
	}
	results := make([]*core.Ciphertext, len(b.jobs))
	any := false
	for i := range b.jobs {
		// Settle first: outputs with registered consumers stay
		// device-resident and skip the download unless kept.
		if sj := &b.jobs[i]; s.settleOutput(w, sj) {
			results[i] = sj.result()
			any = true
		}
	}
	if any {
		t := b.jobs[0].t
		d2h := s.spanBegin()
		func() {
			defer func() {
				if r := recover(); r != nil {
					for i := range b.jobs {
						if results[i] != nil && b.jobs[i].err == nil {
							b.jobs[i].err = wrapPanic("batch download", r)
						}
					}
				}
			}()
			outs, bytes, ev := w.ctx.DownloadBatchAsync(results)
			for i := range b.jobs {
				if results[i] != nil && b.jobs[i].err == nil {
					b.jobs[i].t.fut.res = outs[i]
				}
			}
			b.down = ev
			s.transferDone(t.class, 0, bytes)
		}()
		s.spanEnd(w.ring, d2h, w.track, "d2h", catXfer, s.className(t.class), t.bid, len(b.jobs))
	}
	for i := range b.jobs {
		w.freeAll(&b.jobs[i])
	}
	b.done = s.dev.SimulatedSeconds()
	return true
}

// resolve waits out the batch's download event (the pipeline's only
// host synchronization) and completes every future, accounting each job
// against the batch's own completion stamp.
func (w *worker) resolve(s *Scheduler, b *batch) {
	// Attribute the copy stall: simulated time the host spent waiting
	// out the batch's in-flight download (the wait advances the host
	// clock to the copy event plus the sync cost).
	before := s.dev.SimulatedSeconds()
	b.down.Wait()
	if d := s.dev.SimulatedSeconds() - before; d > 0 {
		s.met.stallCopyNS.Add(int64(d * 1e9))
	}
	st := s.spanBegin()
	// Settle-span labels, captured before the loop: once offerRetry hands
	// a task to the retry plane, its re-dispatch may rewrite bid/disp
	// concurrently.
	class, bid := b.jobs[0].t.class, b.jobs[0].t.bid
	s.finished(w, len(b.jobs))
	for i := range b.jobs {
		sj := &b.jobs[i]
		if sj.retry && s.c.offerRetry(s, sj.t, sj.err) {
			// The cluster's retry plane owns the task now: the future
			// stays pending, dependency references travel with the task
			// for the re-execution, and outstanding accounting stays here
			// until the re-injection transfers it (like a surrender).
			continue
		}
		s.releaseDeps(sj.t)
		sj.t.fut.finish(sj.err)
		s.jobDone(w, sj.t, sj.err != nil, len(b.jobs), b.done)
	}
	s.spanEnd(w.ring, st, w.track, "settle", catSettle, s.className(class), bid, len(b.jobs))
}

// transferDone accounts one gathered transfer submission against its
// class and the bytes it moved.
func (s *Scheduler) transferDone(class int, h2d, d2h int64) {
	s.met.class[class].transferBatches.Add(1)
	s.met.bytesH2D.Add(h2d)
	s.met.bytesD2H.Add(d2h)
}

func (w *worker) freeAll(sj *staged) {
	for _, v := range sj.vals {
		if v != nil {
			w.ctx.Free(v)
		}
	}
	sj.vals = nil
}

// jobDone accounts one completed job — the only place a job is counted
// done. done is the job's completion stamp on the simulated clock (the
// callers read it once per batch, at the point that reflects the
// batch's own work). A nil worker is a job that never reached one
// (failTask): it has no worker share and no service time.
func (s *Scheduler) jobDone(w *worker, t *task, failed bool, batchLen int, done float64) {
	lat := done - t.enq
	if lat < 0 {
		lat = 0
	}
	s.latMu.Lock()
	s.latency[t.class].add(lat)
	s.latMu.Unlock()
	cm := &s.met.class[t.class]
	cm.completed.Add(1)
	if failed {
		cm.failed.Add(1)
	}
	if !math.IsInf(t.deadline, 1) {
		if done <= t.deadline {
			cm.deadlineHit.Add(1)
		} else {
			cm.deadlineMiss.Add(1)
		}
	}
	if batchLen >= 2 {
		cm.coalesced.Add(1)
	}
	if w != nil {
		s.met.worker[w.id].Add(1)
		// Service time: dispatch to completion on the simulated clock
		// (the queueing-delay histogram covers submit to dispatch).
		if svc := done - t.disp; svc >= 0 {
			cm.serviceTime.Observe(svc)
		}
	}
	s.outstandingAdd(-1, -t.work())
}
