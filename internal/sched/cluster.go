package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"xehe/internal/ckks"
	"xehe/internal/gpu"
	"xehe/internal/obs"
)

// ErrNoShards is returned by Cluster.Submit when every shard has been
// taken out of rotation but the cluster itself is still open.
var ErrNoShards = errors.New("sched: cluster has no open shards")

// controlInterval is how often the control loop runs a round (host
// wall-clock; jobs take orders of magnitude longer, so a round is cheap
// relative to the work it migrates, and the retry plane's simulated
// backoff is priced into the stamps rather than slept out).
const controlInterval = 200 * time.Microsecond

// Cluster shards independent HE jobs across several devices: one
// Scheduler per device (each with its own worker pool, class queues
// and buffer cache), fronted by a QoS-aware router. This is the
// functional counterpart of the analytic multi-GPU model in
// internal/gpu/scaling.go — the paper names multi-GPU and heterogeneous
// platforms as future work, and heterogeneous mixes (Device1 +
// Device2) are explicitly supported: routing weights come from each
// device's peak throughput (gpu.ClusterWeight), so a fast device
// absorbs proportionally more of a uniform load.
//
// Shards may live on simulated remote nodes (ShardSpec.Link): the node
// id is the shard's failure domain, and the fault plane (Faults) can
// fail-stop a shard mid-batch, degrade its network hop, or corrupt its
// health checks. The cluster recovers by re-routing the killed shard's
// queued backlog and replaying its surrendered in-flight jobs from
// host-side inputs on a healthy shard; the kernels are deterministic,
// so every replay is bit-identical to the serial path (pinned by the
// chaos differential tests). Routing is health-checked — shards whose
// probes fail stop receiving new work — and the shard set is elastic:
// AddShard grows it at runtime, DrainShard retires members.
//
// Routing is class-aware: latency-sensitive classes go to the shard
// with the least expected wait (outstanding weighted work divided by
// the shard's throughput weight), everything else to the classic
// weighted least-loaded shard. The control loop (control) steals queued
// (not yet dispatched) jobs from the longest backlog onto any shard
// that has gone idle, so a drained device never sits dark while
// another queues. Steal, retirement, kill and retry all move tasks off
// a shard the same way: relocate.
//
// Everything the cluster does in the background is that one loop: a
// round steals, re-injects parked retries and runs the supervisor, in
// that order, and a shard's whole lifecycle is one word (shardState)
// that only Scheduler.on writes.
//
// Jobs are independent, so any shard may execute any job; the simulated
// kernels are deterministic, which makes results identical regardless
// of the routing, stealing and replay decisions (pinned by the cluster
// differential tests). All methods are safe for concurrent use.
type Cluster struct {
	params *ckks.Parameters
	cfg    Config
	rlk    *ckks.RelinKey
	gks    map[int]*ckks.GaloisKey

	// shardsVal holds the current []*Scheduler snapshot, published
	// copy-on-write under mu (AddShard appends, nothing ever removes),
	// so the hot paths iterate lock-free over an immutable slice.
	shardsVal atomic.Value

	// closed is set once, by Close, under mu's write lock: Submit and
	// publishShard read it under mu, the retry plane under retryMu.
	mu        sync.RWMutex // Close and shard-list growth vs Submit
	closed    atomic.Bool
	closeOnce sync.Once

	// stealMu serializes task relocation (every caller of place and
	// relocate) against shard retirement, so a relocated task can never
	// be left without an open scheduler to land on.
	stealMu sync.Mutex

	// stop ends the control loop; wg waits for it and for the shard
	// builds it launched (supervisor.build).
	stop chan struct{}
	wg   sync.WaitGroup

	faults *FaultPlane

	// sup is the self-healing state (Config.SelfHeal): the standby pool
	// and the cold-repair backoff the control loop's rounds act on. nil
	// when off.
	sup *supervisor

	// Retry plane (retry.go): tasks whose transient failures are being
	// re-run park in retryQ (relative stamps, backoff priced in) until
	// the control loop re-injects them. retryN is len(retryQ), so a
	// round with nothing parked takes no lock.
	retryMu sync.Mutex
	retryQ  []retryEntry
	retryN  atomic.Int64

	// obsReg holds the cluster's own instruments (routing and recovery
	// events the shards cannot see); Metrics and Stats merge it with the
	// shard registries. shed counts jobs shed cluster-wide, per class: a
	// job only counts once every open shard refused it (the shards'
	// sched.jobs_rejected also tick for jobs that found a home elsewhere).
	obsReg      *obs.Registry
	shed        []*obs.Counter
	recovered   *obs.Counter
	replayed    *obs.Counter
	killedCnt   *obs.Counter
	addedCnt    *obs.Counter
	standbyCnt  *obs.Counter
	drainedCnt  *obs.Counter
	migratedCnt *obs.Counter
}

// shardState is a shard's lifecycle: standby → open → draining →
// closed, or open → killed → replaced. Only open shards are in rotation;
// the fail-stopped states sort last (Scheduler.Killed is state >=
// stateKilled).
type shardState uint32

const (
	stateStandby  shardState = iota // built and warm, not in the routing snapshot
	stateOpen                       // in rotation
	stateDraining                   // retiring: out of rotation, in-flight work settling in place
	stateClosed                     // retired, or closed with the cluster
	stateKilled                     // fail-stopped: workers surrender, device memory stays readable
	stateReplaced                   // killed, and its replacement has been arranged
	numStates
)

// event is something that happens to a shard's lifecycle.
type event int

const (
	evPublish event = iota // the constructor, publishShard
	evKill                 // killShard: KillShard, KillNode, an armed KillShardAfter firing
	evDrain                // DrainShard / CloseShard starts
	evDrained              // ... and the shard's in-flight work has settled
	evClose                // Cluster.Close (also the teardown of a shard that never published)
	evReplace              // the supervisor arranges the replacement: standby promotion or cold build
	numEvents
)

// lifecycle is the whole transition table: lifecycle[s][e] is where
// event e takes a shard in state s. Nothing re-enters standby, so the
// zero entry is the refusal.
var lifecycle = [numStates][numEvents]shardState{
	stateStandby:  {evPublish: stateOpen, evClose: stateClosed},
	stateOpen:     {evKill: stateKilled, evDrain: stateDraining, evClose: stateClosed},
	stateDraining: {evDrained: stateClosed},
	stateKilled:   {evReplace: stateReplaced},
}

func (s *Scheduler) state() shardState { return shardState(s.life.Load()) }

// on applies event e to the shard's lifecycle: the one place the word
// is written. True means this caller made the transition and owns what
// follows from it — the kill's evacuation, the drain's teardown, the
// one replacement; false means the table refuses e in the current state
// (or another caller got there first) and nothing changed.
func (s *Scheduler) on(e event) bool {
	for {
		cur := s.state()
		next := lifecycle[cur][e]
		if next == stateStandby {
			return false
		}
		if s.life.CompareAndSwap(uint32(cur), uint32(next)) {
			return true
		}
	}
}

// probe runs one health check against the shard: false while it is out
// of rotation or its sickness budget (the link-fault marks of
// FaultPlane.DelayHops, DropHops and FailHops) holds, consuming one
// budget unit per failed probe.
func (s *Scheduler) probe() bool {
	return s.state() == stateOpen && spend(&s.sick) == 0
}

// spend takes one unit off a fault-plane budget and returns what the
// budget held before: 0 means it was empty and stays so.
func spend(budget *atomic.Int64) int64 {
	for {
		n := budget.Load()
		if n <= 0 {
			return 0
		}
		if budget.CompareAndSwap(n, n-1) {
			return n
		}
	}
}

// health classifies the shard for operators: "killed" (fail-stopped),
// "closed" (retired), "sick" (health probes failing) or "ok".
func (s *Scheduler) health() string {
	switch s.state() {
	case stateKilled, stateReplaced:
		return "killed"
	case stateDraining, stateClosed:
		return "closed"
	}
	if s.sick.Load() > 0 {
		return "sick"
	}
	return "ok"
}

// maybeKill is the fault plane's deterministic mid-batch kill point
// (onBatch's default): armed by KillShardAfter(i, n), the n-th batch
// to start on the shard kills it from the worker goroutine itself —
// after the batch was counted started, before any of it settles — so a
// chaos schedule reproduces exactly.
func (s *Scheduler) maybeKill() {
	if spend(&s.killAfter) == 1 {
		s.c.killShard(s.id)
	}
}

// NetLink describes the simulated network hop between the scheduler's
// host and a device on a remote node. The zero value is a host-local
// attachment (no hop is priced).
type NetLink struct {
	// LatencySeconds is the one-way wire latency per crossing. Every
	// wire-format submission delays command arrival by it, and every
	// host sync pays it on the completion's way back.
	LatencySeconds float64
	// GBps is the link bandwidth applied to H2D/D2H payloads on top of
	// the device's PCIe leg; 0 models a latency-only hop.
	GBps float64
}

// ShardSpec describes one shard of a cluster, as data: the device model
// to simulate, the failure domain (node id) it lives in — shards on one
// node share fate (FaultPlane.KillNode) — and the network hop between
// the router's host and that node. The cluster builds the shard from it
// (newShard), and builds it again to stock a standby or to replace the
// shard after a kill.
type ShardSpec struct {
	Device gpu.DeviceSpec
	Node   int
	Link   NetLink
}

// NewCluster builds a router over one scheduler per spec — host-local
// devices, devices on simulated remote nodes, or a mix. cfg applies per
// shard; a zero Workers count defaults to each device's own tile count,
// so heterogeneous devices get differently sized pools. The
// rotation-key lookup table is replicated per shard at construction
// (each shard's scheduler owns its own map; the key material itself is
// immutable host-side data, shared read-only). On real hardware this
// construction step is where each device would receive its own key
// upload.
func NewCluster(params *ckks.Parameters, specs []ShardSpec, cfg Config, rlk *ckks.RelinKey, gks map[int]*ckks.GaloisKey) *Cluster {
	if len(specs) == 0 {
		panic("sched: cluster needs at least one shard")
	}
	// Resolve the knobs the cluster itself reads (the shards resolve the
	// full Config per device; these resolutions are idempotent).
	if cfg.Standbys < 0 {
		cfg.Standbys = 0
	}
	c := &Cluster{
		params: params,
		cfg:    cfg,
		rlk:    rlk,
		gks:    gks,
		stop:   make(chan struct{}),
		obsReg: obs.NewRegistry(),
	}
	c.recovered = c.obsReg.Counter("cluster.recovered_jobs")
	c.replayed = c.obsReg.Counter("cluster.replayed_jobs")
	c.killedCnt = c.obsReg.Counter("cluster.killed_shards")
	c.addedCnt = c.obsReg.Counter("cluster.added_shards")
	c.standbyCnt = c.obsReg.Counter("cluster.standby_promotions")
	c.drainedCnt = c.obsReg.Counter("cluster.drained_jobs")
	c.migratedCnt = c.obsReg.Counter("cluster.migrated_residents")
	c.faults = &FaultPlane{c: c}
	shards := make([]*Scheduler, 0, len(specs))
	for i, spec := range specs {
		sh := c.newShard(i, spec)
		sh.on(evPublish)
		shards = append(shards, sh)
	}
	c.shardsVal.Store(shards)
	for _, cl := range shards[0].classes {
		c.shed = append(c.shed, c.obsReg.Counter("cluster.shed_jobs."+cl.Name))
	}
	if c.cfg.SelfHeal {
		c.sup = newSupervisor(c)
	}
	c.wg.Add(1)
	go c.control()
	return c
}

// all returns the current shard snapshot. The slice is immutable —
// AddShard publishes a fresh copy — so iteration is lock-free and a
// caller mid-routine keeps a consistent view.
func (c *Cluster) all() []*Scheduler { return c.shardsVal.Load().([]*Scheduler) }

// shard returns shard i of the current snapshot, nil when out of range.
func (c *Cluster) shard(i int) *Scheduler {
	if shards := c.all(); i >= 0 && i < len(shards) {
		return shards[i]
	}
	return nil
}

// Shards returns the number of shards (open or not).
func (c *Cluster) Shards() int { return len(c.all()) }

// Faults returns the cluster's fault-injection plane.
func (c *Cluster) Faults() *FaultPlane { return c.faults }

// AddShard grows the cluster with a new shard built from the spec
// (elastic scale-up, pairing DrainShard's scale-down): the shard warms
// its buffer cache per the cluster's config, enters the routing tables
// immediately, and the control loop's steal rounds rebalance backlogs
// onto it. Adding a shard after every existing shard closed
// revives the cluster — Submit routes again instead of returning
// ErrNoShards. It returns the new shard's index, or ErrClosed after
// Close.
func (c *Cluster) AddShard(spec ShardSpec) (int, error) {
	// Build outside c.mu — shard construction (device contexts, cache
	// warm-up) is slow, and the supervisor builds standbys through the
	// same path long before publication.
	sh := c.newShard(-1, spec)
	id, err := c.publishShard(sh)
	if err != nil {
		c.discard(sh)
	}
	return id, err
}

// discard tears down a shard that never made it into the snapshot (the
// cluster closed before it could publish).
func (c *Cluster) discard(sh *Scheduler) {
	sh.on(evClose)
	sh.Close()
}

// publishShard opens a fully built shard and appends it to the routing
// snapshot, assigning its id. The id write outside any lock is
// race-free: work can only reach a shard through the published
// snapshot, and the store below publishes the write. Closing clusters
// refuse the shard (the caller owns its teardown).
func (c *Cluster) publishShard(sh *Scheduler) (int, error) {
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		return 0, ErrClosed
	}
	old := c.all()
	sh.id = len(old)
	sh.on(evPublish)
	shards := make([]*Scheduler, len(old), len(old)+1)
	copy(shards, old)
	shards = append(shards, sh)
	c.shardsVal.Store(shards)
	c.mu.Unlock()
	c.addedCnt.Add(1)
	return sh.id, nil
}

// routeCost is what sending a job to a shard costs the router: the
// shard's outstanding load plus the job itself, over the shard's
// throughput weight — so an idle slow device still loses to a fast one
// with a little backlog, and a uniform stream splits in proportion to
// the weights. Bulk classes count load in jobs (the job adds 1);
// latency-sensitive ones in work units — uploads plus kernel ops, a
// finer signal — which makes the cost the job's expected wait.
func routeCost(load, job, weight float64) float64 { return (load + job) / weight }

// affinity returns the shard holding a device-resident output the job
// depends on, if that shard is still open, probe-healthy and not
// skipped. Routing a consumer to its producer's shard turns the
// dependency edge into a zero-copy borrow; any other placement
// rematerializes the value through the host. The first dependency with
// a known home wins (a consumer of producers on different shards can
// only be local to one of them anyway).
func (c *Cluster) affinity(job *Job, skip map[int]bool) *Scheduler {
	shards := c.all()
	for _, f := range job.Deps {
		if f == nil {
			continue
		}
		id := atomic.LoadInt32(&f.shard)
		if id < 0 || int(id) >= len(shards) {
			continue
		}
		sh := shards[id]
		if skip[sh.id] || !sh.probe() {
			continue
		}
		return sh
	}
	return nil
}

// pick routes one job to the open shard of least routeCost, or returns
// nil when no open shard remains outside skip. Shards in skip (already
// tried and found overloaded for this job's class) are excluded, as are
// shards whose health probe fails — unless EVERY open shard probes
// sick, in which case the probe is ignored (a sick health plane must
// degrade routing quality, not wedge the cluster).
func (c *Cluster) pick(job *Job, skip map[int]bool) *Scheduler {
	shards := c.all()
	open := make([]bool, len(shards))
	healthy := make([]bool, len(shards))
	anyHealthy := false
	for i, sh := range shards {
		open[i] = sh.state() == stateOpen && !skip[i]
		healthy[i] = open[i] && sh.probe()
		anyHealthy = anyHealthy || healthy[i]
	}
	if anyHealthy {
		open = healthy
	}
	latSensitive := false
	if cs := shards[0].classes; job.Class >= 0 && int(job.Class) < len(cs) {
		// Out-of-range classes fall through to the default routing and
		// are rejected by Scheduler.validate with a proper error.
		latSensitive = cs[job.Class].LatencySensitive
	}
	best := leastLoaded(len(shards), func(i int) (float64, bool) {
		if !open[i] {
			return 0, false
		}
		s := shards[i]
		if latSensitive {
			return routeCost(s.OutstandingWork(), float64(len(job.Inputs)+len(job.Ops)), s.weight), true
		}
		return routeCost(float64(s.Outstanding()), 1, s.weight), true
	})
	if best < 0 {
		return nil
	}
	return shards[best]
}

// Submit validates and enqueues a job on a shard chosen by the job's
// class (expected-wait routing for latency-sensitive classes,
// weighted least-loaded otherwise), returning a Future for its
// result. It blocks when the chosen shard's pipeline is saturated
// (backpressure), falls over to the next-best shard when a shard
// sheds the job's class (returning ErrOverloaded only once every open
// shard has), and returns ErrClosed after Close.
func (c *Cluster) Submit(job *Job) (*Future, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed.Load() {
		return nil, ErrClosed
	}
	var skip map[int]bool
	overloaded := false
	for {
		sh := c.affinity(job, skip)
		if sh == nil {
			sh = c.pick(job, skip)
		}
		if sh == nil {
			if overloaded {
				c.shed[job.Class].Add(1)
				return nil, ErrOverloaded
			}
			return nil, ErrNoShards
		}
		fut, err := sh.Submit(job)
		switch err {
		case ErrClosed:
			// The shard was killed or retired between pick and submit.
			// Whoever did that flipped its state first, so the next pick
			// passes it over: route again.
			continue
		case ErrOverloaded:
			// This shard's slice of the class is full; try the rest
			// before telling the caller the cluster is overloaded.
			if skip == nil {
				skip = make(map[int]bool)
			}
			skip[sh.id] = true
			overloaded = true
			continue
		}
		if err == nil {
			// Record the output's home for downstream consumers'
			// affinity routing.
			atomic.StoreInt32(&fut.shard, int32(sh.id))
		}
		return fut, err
	}
}

// Drain blocks until every job submitted so far has completed on every
// shard. Like Scheduler.Drain it does not stop intake. Stolen and
// surrendered jobs are double-counted (never dropped) while they
// migrate, so the final zero-sum check below cannot pass with a job
// still in flight; the loop re-drains until no migration slipped
// between per-shard waits.
func (c *Cluster) Drain() {
	for {
		shards := c.all()
		for _, sh := range shards {
			sh.Drain()
		}
		total := int64(0)
		for _, sh := range shards {
			total += sh.Outstanding()
		}
		if total == 0 && len(c.all()) == len(shards) {
			return
		}
	}
}

// control is the cluster's one background goroutine, started by
// NewCluster and stopped by Close. A round, in order: stealRound
// rebalances queued backlogs, retryRound re-injects parked retries (onto
// whatever the steal left least loaded), and the supervisor's round
// launches replacements for killed shards and restocks the standby pool
// — the only slow work, device construction, runs off the loop in
// supervisor.build. On a one-shard cluster with nothing parked and no
// supervisor a round reads the snapshot and returns, taking no lock.
func (c *Cluster) control() {
	defer c.wg.Done()
	tick := time.NewTicker(controlInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		c.stealRound()
		c.retryRound()
		if c.sup != nil {
			c.sup.round()
		}
	}
}

// stealRound performs one scan-and-migrate pass: when some open shard
// sits fully idle while another has queued (not yet dispatched) jobs,
// up to half of the longest backlog relocates (place sends it to the
// idle shard — nothing is less loaded). Elapsed wait and remaining
// deadline budget survive the clock change (task.detach/attach); results
// are unaffected because the kernels are deterministic on every shard.
// stealMu excludes shard retirement, so the destination cannot close
// before the tasks land.
func (c *Cluster) stealRound() {
	shards := c.all()
	if len(shards) < 2 {
		return
	}
	c.stealMu.Lock()
	defer c.stealMu.Unlock()
	queued := make([]int, len(shards))
	idle := false
	for i, sh := range shards {
		if sh.state() != stateOpen {
			continue
		}
		queued[i] = sh.QueuedJobs()
		idle = idle || queued[i] == 0 && sh.Outstanding() == 0
	}
	// The longest backlog is the victim. An armed deterministic kill
	// (KillShardAfter) pins its shard's backlog: stealing it away races
	// the scripted batch count and the kill may never fire.
	v := leastLoaded(len(shards), func(i int) (float64, bool) {
		return -float64(queued[i]), queued[i] > 0 && shards[i].killAfter.Load() == 0
	})
	if idle && v >= 0 {
		c.relocate(shards[v], shards[v].stealQueued(max(queued[v]/2, 1)), nil)
	}
}

// dest chooses where relocated tasks go, for every exit alike: the open
// shard with the fewest outstanding jobs, ties to the lowest index,
// never not (nil excludes nobody). Health probes steer Submit's routing
// (pick), not relocation. nil when no such shard is open.
func (c *Cluster) dest(not *Scheduler) *Scheduler {
	shards := c.all()
	i := leastLoaded(len(shards), func(i int) (float64, bool) {
		sh := shards[i]
		return float64(sh.Outstanding()), sh != not && sh.state() == stateOpen
	})
	if i < 0 {
		return nil
	}
	return shards[i]
}

// place lands detached tasks on dest(not), which takes over their
// outstanding accounting from src. Caller holds stealMu, so only a kill
// can close the destination between the choice and the landing; the
// choice is then made again. False means no shard was open and nothing
// moved.
func (c *Cluster) place(src, not *Scheduler, tasks []*task) bool {
	for dst := c.dest(not); dst != nil; dst = c.dest(not) {
		if dst.injectTasks(tasks, src) {
			return true
		}
	}
	return false
}

// relocate is the one way detached tasks leave src, whatever took them
// off it — a steal, a retirement's or a kill's evacuation, a killed
// worker's surrender. Their fate, in order: another open shard (counted
// into cnt, reported true); back onto src when it still runs (a steal
// victim, a draining shard whose only taker just died); the retry plane
// for tasks with budget when src is dead, since the supervisor may be
// replacing it; failure with ErrShardLost. Nothing is dropped, so Drain
// and Close cannot wedge. Caller holds stealMu.
func (c *Cluster) relocate(src *Scheduler, tasks []*task, cnt *obs.Counter) bool {
	if len(tasks) == 0 {
		return false
	}
	if c.place(src, src, tasks) {
		if cnt != nil {
			cnt.Add(int64(len(tasks)))
		}
		return true
	}
	if src.injectTasks(tasks, src) {
		return false
	}
	for _, t := range tasks {
		if !c.queueRetry(src, t, ErrShardLost) {
			src.abandon(t)
		}
	}
	return false
}

// evacuateLocked relocates sh's queued (not yet dispatched) backlog in
// halves, so each lands on whichever shard is least loaded by then,
// counting moved jobs into cnt. With no other shard open it touches
// neither the queue nor the steal counters: the jobs run where they
// are. Caller holds stealMu and has taken sh out of rotation.
func (c *Cluster) evacuateLocked(sh *Scheduler, cnt *obs.Counter) {
	for c.dest(sh) != nil {
		queued := sh.QueuedJobs()
		if queued == 0 || !c.relocate(sh, sh.stealQueued((queued+1)/2), cnt) {
			return
		}
	}
}

// killShard fail-stops shard i: it leaves rotation immediately, its
// scheduler flips into surrender mode (everything pulled by workers
// but not yet settled is handed back for replay), and its queued
// backlog is evacuated to the open shards. Device memory stays
// readable — the node lost its executor, not its RAM — so resident
// outputs rematerialize through the owner path during replay. The
// scheduler itself is torn down later by Close. A shard leaves rotation
// once and whoever makes that transition owns the exit, so killing a
// shard that was already killed, retired (DrainShard) or closed with
// the cluster — or is out of range — does nothing and returns false.
func (c *Cluster) killShard(i int) bool {
	sh := c.shard(i)
	if sh == nil || !sh.on(evKill) {
		return false
	}
	c.killedCnt.Add(1)
	// Self-heal before evacuating: promoting a warm standby here means
	// the dead shard's backlog (and every routing decision from now
	// on) already sees the replacement capacity.
	if c.sup != nil {
		c.sup.onKill(sh)
	}
	// Jobs not yet dispatched need no replay, they just re-route.
	c.stealMu.Lock()
	c.evacuateLocked(sh, c.recovered)
	c.stealMu.Unlock()
	return true
}

// recoverTasks is the surrender hook: detached tasks handed back by a
// killed shard's workers relocate — dependency residencies rehome
// through the owner path — and replay from host-side inputs. The
// kernels are deterministic, so a re-executed job cannot diverge from
// the serial path.
func (c *Cluster) recoverTasks(src *Scheduler, ts []*task) {
	c.stealMu.Lock()
	defer c.stealMu.Unlock()
	c.relocate(src, ts, c.replayed)
}

// CloseShard retires shard i. It is DrainShard under its older name:
// there is one retirement, and it is the graceful one.
func (c *Cluster) CloseShard(i int) { c.DrainShard(i) }

// Close stops intake and the control loop, then closes all shards
// concurrently (each drains its pending jobs and releases its buffer
// cache). It is idempotent, and every call returns only after the
// teardown has fully completed.
func (c *Cluster) Close() { c.closeOnce.Do(c.teardown) }

// teardown is Close's body: mark closed, stop the control loop and wait
// for its builds, fail what is parked, close the shards.
func (c *Cluster) teardown() {
	c.mu.Lock()
	c.closed.Store(true)
	c.mu.Unlock()
	// Stop the control loop and wait out the builds it launched, before
	// any scheduler starts tearing down: no steal or retry is mid-flight
	// without an open destination, and every build has ended — published
	// before the snapshot below, pooled, or refused (closed) and torn
	// down.
	close(c.stop)
	c.wg.Wait()
	// Parked retries fail with their original errors rather than wait
	// for capacity that will never come.
	c.failParked()
	// Pooled standbys close with the fleet.
	shards := c.all()
	if c.sup != nil {
		shards = append(shards[:len(shards):len(shards)], c.sup.takePool()...)
	}
	c.stealMu.Lock()
	for _, sh := range shards {
		sh.on(evClose)
	}
	c.stealMu.Unlock()
	var wg sync.WaitGroup
	for _, sh := range shards {
		wg.Add(1)
		go func(sh *Scheduler) {
			defer wg.Done()
			sh.Close()
		}(sh)
	}
	wg.Wait()
}

// ClusterStats is the typed view of the cluster's merged metrics
// snapshot: the embedded Stats reads jobs, failures, batches, steals
// and cache traffic summed over the whole cluster (MaxBatch is the
// maximum, PerWorker concatenates the shards' pools in shard order,
// PerClass quantiles are recomputed over the union of the shards'
// samples, PerClass Rejected counts cluster-wide sheds only); PerShard,
// Routed and Stolen break the same numbers down by shard.
type ClusterStats struct {
	Stats
	PerShard []Stats
	Routed   []int64 // jobs each shard admitted from the router
	Stolen   []int64 // jobs placed on each shard off another (stealing, evacuation, replay, retry)
	// Failure-domain counters: Recovered counts queued jobs evacuated
	// off killed shards, Replayed counts in-flight jobs surrendered by
	// killed workers and re-executed on a healthy shard, Killed counts
	// fail-stopped shards, Added counts shard publications (AddShard
	// calls, standby promotions and supervisor cold replacements all
	// grow the fleet through the same path). Health is the per-shard
	// state at snapshot time: "ok", "sick", "killed" or "closed".
	Recovered int64 `metric:"cluster.recovered_jobs"`
	Replayed  int64 `metric:"cluster.replayed_jobs"`
	Killed    int64 `metric:"cluster.killed_shards"`
	Added     int64 `metric:"cluster.added_shards"`
	Health    []string
	// Recovery counters (supervisor / drain / retry planes):
	// StandbyPromoted counts kills absorbed by promoting a warm standby
	// (instant replacement, no device construction); Drained counts
	// queued jobs relocated by DrainShard/CloseShard's retirement (vs
	// Recovered+Replayed for a fail-stop — a drain replays nothing);
	// Migrated counts device-resident outputs a drain pre-copied to the
	// host; RetryAttempts counts re-executions of transiently failed
	// jobs (the total of PerClass Retried).
	StandbyPromoted int64 `metric:"cluster.standby_promotions"`
	Drained         int64 `metric:"cluster.drained_jobs"`
	Migrated        int64 `metric:"cluster.migrated_residents"`
	RetryAttempts   int64 `metric:"cluster.retry_attempts"`
}

// Stats returns the view of the merged snapshot, with each shard's own
// view beside it. Three things are not sums and are set here: PerShard
// is the view of each shard's snapshot alone, PerWorker concatenates,
// and a class's Rejected is the cluster's shed count (a shard-level
// rejection that found a home on another shard is not a shed job; those
// remain visible in PerShard).
func (c *Cluster) Stats() ClusterStats {
	shards := c.all()
	classes := shards[0].classes
	cs := ClusterStats{
		PerShard: make([]Stats, len(shards)),
		Routed:   make([]int64, len(shards)),
		Stolen:   make([]int64, len(shards)),
		Health:   make([]string, len(shards)),
	}
	snaps := c.snapshots(shards)
	lat := make([][]float64, len(classes))
	var perWorker []int64
	for i, sh := range shards {
		own := sh.classLatencies()
		v := snaps[i].Values()
		cs.PerShard[i] = statsView(v, classes, own)
		cs.Routed[i] = int64(v["sched.jobs_submitted"])
		cs.Stolen[i] = int64(v["sched.stolen_in.placed"])
		cs.Health[i] = sh.health()
		perWorker = append(perWorker, cs.PerShard[i].PerWorker...)
		for k := range lat {
			lat[k] = append(lat[k], own[k]...)
		}
	}
	v := obs.Merge(snaps...).Values()
	fillFrom(&cs, v, "")
	cs.Stats = statsView(v, classes, lat)
	cs.PerWorker = perWorker
	for k, cl := range classes {
		cs.PerClass[k].Rejected = int64(v["cluster.shed_jobs."+cl.Name])
	}
	return cs
}

// SimulatedSeconds returns the cluster's simulated wall-clock: the
// busiest shard's timeline, since the devices run in parallel.
func (c *Cluster) SimulatedSeconds() float64 {
	var max float64
	for _, sh := range c.all() {
		if s := sh.dev.SimulatedSeconds(); s > max {
			max = s
		}
	}
	return max
}

// ResetSimClocks zeroes every shard's simulated clocks and the QoS
// state derived from them (enqueue-stamp floors, latency sample
// windows; allocation statistics and counter totals preserved), for
// steady-state measurement after a warm-up. Call it only while the
// cluster is idle.
func (c *Cluster) ResetSimClocks() {
	for _, sh := range c.all() {
		sh.ResetClocks()
	}
	// Pooled standbys reset too: one built during warm-up must not
	// carry clock skew into the measured window it is promoted into.
	if c.sup != nil {
		c.sup.resetClocks()
	}
}
