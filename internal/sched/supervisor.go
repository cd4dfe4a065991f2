package sched

import (
	"sync"
	"time"
)

// Supervisor timing (host wall-clock: replacement is control-plane
// work, not simulated device activity). Cold replacements are
// rate-limited with exponential backoff between attempts, and builds of
// either kind (cold replacement, standby restock) by a cap on how many
// run concurrently, so a kill storm cannot stampede the host with
// device constructions.
const (
	repairBackoffMin     = time.Millisecond
	repairBackoffMax     = 100 * time.Millisecond
	maxConcurrentRepairs = 2
)

// supervisor is the cluster's self-healing state (Config.SelfHeal): it
// replaces fail-stopped shards — instantly by promoting a warm standby
// (Config.Standbys, onKill), or by a rate-limited cold rebuild of the
// dead shard's spec in its failure domain (round, on the control loop).
// Replacement is what turns the fault plane's "survive a kill" into
// "recover the capacity": the chaos bench's recovered-throughput floor
// comes from how fast the lost shard's share of the fleet returns.
type supervisor struct {
	c       *Cluster
	sources []ShardSpec // the constructor's specs: templates for the pool

	// mu guards the standby pool: onKill pops it from the killing
	// goroutine, builds push to it.
	mu         sync.Mutex
	standbys   []*Scheduler
	restocking int // standby builds in flight

	// The rest is the control loop's alone. It is the only taker of
	// build slots, so a slot it sees free stays free until it takes it.
	slots   chan struct{} // bounds concurrent builds
	next    int           // round-robin cursor over sources
	nodeSeq int           // high-water mark of node ids: standbys go above it
	backoff time.Duration // current cold-repair backoff
	lastTry time.Time     // last cold-repair launch
}

// newSupervisor builds the supervisor and its initial standby pool
// (synchronously — pool construction is a build-time cost, like
// WarmBuffers). Standby shards are fully constructed and cache-warmed
// but unpublished: promotion is one routing-table append.
func newSupervisor(c *Cluster) *supervisor {
	sup := &supervisor{
		c:       c,
		slots:   make(chan struct{}, maxConcurrentRepairs),
		backoff: repairBackoffMin,
	}
	for _, sh := range c.all() {
		sup.sources = append(sup.sources, sh.spec)
	}
	for i := 0; i < c.cfg.Standbys; i++ {
		sup.standbys = append(sup.standbys, c.newShard(-1, sup.standbySpec()))
	}
	return sup
}

// standbySpec is the next template, on a fresh node (a spare machine is
// its own failure domain): one above every node published so far —
// AddShard may have introduced new ones since the last build — and
// above every standby built before it, pooled, promoted or on its way
// between the two.
func (sup *supervisor) standbySpec() ShardSpec {
	spec := sup.sources[sup.next%len(sup.sources)]
	sup.next++
	for _, sh := range sup.c.all() {
		sup.nodeSeq = max(sup.nodeSeq, sh.spec.Node+1)
	}
	spec.Node = sup.nodeSeq
	sup.nodeSeq++
	return spec
}

// onKill reacts to a fail-stop synchronously, from inside killShard
// before the dead shard's backlog evacuates: promoting a warm standby
// here means the evacuation (and every subsequent routing decision)
// already sees the replacement capacity — the promotion itself is one
// snapshot append, no device construction, no cache warm-up. With the
// pool empty, or the repair already claimed by the control loop, it does
// nothing: a loss is repaired once, by whoever wins evReplace.
func (sup *supervisor) onKill(sh *Scheduler) {
	sup.mu.Lock()
	n := len(sup.standbys)
	if n == 0 || !sh.on(evReplace) {
		sup.mu.Unlock()
		return
	}
	sb := sup.standbys[n-1]
	sup.standbys = sup.standbys[:n-1]
	sup.mu.Unlock()
	if _, err := sup.c.publishShard(sb); err != nil {
		sup.c.discard(sb) // cluster closed under us
		return
	}
	sup.c.standbyCnt.Add(1)
}

// round is the control loop's third step. It launches cold replacements
// for killed shards nobody has claimed — never more often than the
// current backoff allows, which doubles per launch and resets once a
// scan finds nothing to repair, so an isolated kill is replaced within
// ~1ms while a kill storm is replaced at a bounded, decaying rate — and
// then restocks the standby pool towards Config.Standbys, one build per
// round.
func (sup *supervisor) round() {
	idle := true
	for _, sh := range sup.c.all() {
		if sh.state() != stateKilled {
			continue
		}
		idle = false
		if time.Since(sup.lastTry) < sup.backoff || len(sup.slots) == cap(sup.slots) || !sh.on(evReplace) {
			continue
		}
		sup.lastTry = time.Now()
		sup.backoff = min(2*sup.backoff, repairBackoffMax)
		// Build the dead shard's spec again, failure domain included:
		// the node lost a device, not its slot in the topology.
		sup.build(sh.spec, false)
	}
	if idle {
		sup.backoff = repairBackoffMin
	}
	if sup.c.cfg.Standbys == 0 || len(sup.slots) == cap(sup.slots) {
		return
	}
	sup.mu.Lock()
	short := len(sup.standbys)+sup.restocking < sup.c.cfg.Standbys
	if short {
		sup.restocking++
	}
	sup.mu.Unlock()
	if short {
		sup.build(sup.standbySpec(), true)
	}
}

// build is the one off-loop build path: it constructs a shard from spec
// on its own goroutine, holding a build slot, and ends it one of three
// ways — pooled (a standby restock), published (a cold replacement), or
// torn down because the cluster closed before it could publish. Close
// waits for it (c.wg) before it empties the pool and snapshots the
// fleet, so a shard landed here is never missed by the teardown.
func (sup *supervisor) build(spec ShardSpec, standby bool) {
	c := sup.c
	sup.slots <- struct{}{}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer func() { <-sup.slots }()
		sh := c.newShard(-1, spec)
		if standby {
			sup.mu.Lock()
			sup.restocking--
			sup.standbys = append(sup.standbys, sh)
			sup.mu.Unlock()
		} else if _, err := c.publishShard(sh); err != nil {
			c.discard(sh)
		}
	}()
}

// takePool empties the standby pool for Close, which tears the shards
// down with the fleet.
func (sup *supervisor) takePool() []*Scheduler {
	sup.mu.Lock()
	defer sup.mu.Unlock()
	pool := sup.standbys
	sup.standbys = nil
	return pool
}

// resetClocks zeroes the pooled standbys' simulated clocks alongside
// the cluster's (a standby constructed during warm-up must not carry
// clock skew into the measured window it is promoted into).
func (sup *supervisor) resetClocks() {
	sup.mu.Lock()
	pool := append([]*Scheduler(nil), sup.standbys...)
	sup.mu.Unlock()
	for _, sb := range pool {
		sb.ResetClocks()
	}
}
