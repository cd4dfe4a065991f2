package sched

import (
	"sync"
	"time"
)

// Supervisor timing (host wall-clock: replacement is control-plane
// work, not simulated device activity). Cold replacements are
// rate-limited with exponential backoff between attempts and a cap on
// how many build concurrently, so a kill storm cannot stampede the
// host with device constructions.
const (
	supervisorInterval   = 500 * time.Microsecond
	repairBackoffMin     = time.Millisecond
	repairBackoffMax     = 100 * time.Millisecond
	maxConcurrentRepairs = 2
)

// supervisor is the cluster's self-healing control loop
// (Config.SelfHeal): it watches the health plane for fail-stopped
// shards and replaces them — instantly by promoting a warm standby
// (Config.Standbys), or by a rate-limited cold rebuild of the dead
// shard's spec in its failure domain. Replacement is what turns
// the fault plane's "survive a kill" into "recover the capacity": the
// chaos bench's recovered-throughput floor comes from how fast the
// lost shard's share of the fleet returns.
type supervisor struct {
	c     *Cluster
	stopc chan struct{}
	wg    sync.WaitGroup

	// mu guards the standby pool and the round-robin/node counters.
	mu       sync.Mutex
	stopped  bool
	standbys []*shard
	sources  []ShardSpec // the constructor's specs: templates for the pool
	next     int         // round-robin cursor over sources
	nodeSeq  int         // high-water mark of node ids: standbys go above it

	repairSem chan struct{} // bounds concurrent cold rebuilds
	backoff   time.Duration // current cold-repair backoff
	lastTry   time.Time     // last cold-repair launch
}

// newSupervisor builds the supervisor and its initial standby pool
// (synchronously — pool construction is a build-time cost, like
// WarmBuffers), then starts the watch loop. Standby shards are fully
// constructed and cache-warmed but unpublished: promotion is one
// routing-table append.
func newSupervisor(c *Cluster) *supervisor {
	sup := &supervisor{
		c:         c,
		stopc:     make(chan struct{}),
		repairSem: make(chan struct{}, maxConcurrentRepairs),
		backoff:   repairBackoffMin,
	}
	for _, sh := range c.all() {
		sup.sources = append(sup.sources, sh.spec)
	}
	for i := 0; i < c.cfg.Standbys; i++ {
		sup.standbys = append(sup.standbys, sup.buildStandby())
	}
	sup.wg.Add(1)
	go sup.loop()
	return sup
}

// buildStandby constructs one unpublished warm shard from the next
// template, on a fresh node (a spare machine is its own failure
// domain): one above every node published so far — AddShard may have
// introduced new ones since the last build — and above every standby
// built before it, pooled, promoted or on its way between the two.
func (sup *supervisor) buildStandby() *shard {
	sup.mu.Lock()
	spec := sup.sources[sup.next%len(sup.sources)]
	sup.next++
	for _, sh := range sup.c.all() {
		sup.nodeSeq = max(sup.nodeSeq, sh.spec.Node+1)
	}
	spec.Node = sup.nodeSeq
	sup.nodeSeq++
	sup.mu.Unlock()
	return sup.c.newShard(-1, spec)
}

// takeStandby pops a warm shard from the pool, or nil.
func (sup *supervisor) takeStandby() *shard {
	sup.mu.Lock()
	defer sup.mu.Unlock()
	if sup.stopped || len(sup.standbys) == 0 {
		return nil
	}
	sb := sup.standbys[len(sup.standbys)-1]
	sup.standbys = sup.standbys[:len(sup.standbys)-1]
	return sb
}

// onKill reacts to a fail-stop synchronously, from inside killShard
// before the dead shard's backlog evacuates: promoting a warm standby
// here means the evacuation (and every subsequent routing decision)
// already sees the replacement capacity — the promotion itself is one
// snapshot append, no device construction, no cache warm-up.
func (sup *supervisor) onKill(sh *shard) {
	sb := sup.takeStandby()
	if sb == nil {
		return // cold path: the watch loop rebuilds it
	}
	if _, err := sup.c.publishShard(sb); err != nil {
		sb.sched.Close() // cluster closed under us
		return
	}
	sh.replaced.Store(true)
	sup.c.standbyCnt.Add(1)
}

// loop is the watch side: cold-replace killed shards the synchronous
// promotion missed (no standby in stock), and restock the pool.
func (sup *supervisor) loop() {
	defer sup.wg.Done()
	tick := time.NewTicker(supervisorInterval)
	defer tick.Stop()
	for {
		select {
		case <-sup.stopc:
			return
		case <-tick.C:
		}
		sup.round()
		sup.refill()
	}
}

// round scans the health plane and launches cold replacements for
// killed, unreplaced shards — at most maxConcurrentRepairs in flight,
// and never more often than the current backoff allows. The backoff
// doubles per launch and resets once a scan finds nothing to repair,
// so an isolated kill is replaced within ~1ms while a kill storm is
// replaced at a bounded, decaying rate.
func (sup *supervisor) round() {
	idle := true
	for _, sh := range sup.c.all() {
		if !sh.sched.Killed() || sh.replaced.Load() {
			continue
		}
		idle = false
		sup.mu.Lock()
		ready := time.Since(sup.lastTry) >= sup.backoff
		sup.mu.Unlock()
		if !ready {
			continue
		}
		select {
		case sup.repairSem <- struct{}{}:
		default:
			continue // repair capacity saturated
		}
		if !sh.replaced.CompareAndSwap(false, true) {
			<-sup.repairSem
			continue
		}
		sup.mu.Lock()
		sup.lastTry = time.Now()
		if sup.backoff *= 2; sup.backoff > repairBackoffMax {
			sup.backoff = repairBackoffMax
		}
		sup.mu.Unlock()
		dead := sh
		sup.wg.Add(1)
		go func() {
			defer sup.wg.Done()
			defer func() { <-sup.repairSem }()
			// Build the dead shard's spec again, failure domain included:
			// the node lost a device, not its slot in the topology.
			repl := sup.c.newShard(-1, dead.spec)
			if _, err := sup.c.publishShard(repl); err != nil {
				repl.sched.Close() // cluster closed mid-repair
			}
		}()
	}
	if idle {
		sup.mu.Lock()
		sup.backoff = repairBackoffMin
		sup.mu.Unlock()
	}
}

// refill restocks the standby pool to Config.Standbys, one shard per
// tick (construction runs on the loop goroutine; a tick is far shorter
// than a build, so restocking is effectively continuous).
func (sup *supervisor) refill() {
	sup.mu.Lock()
	want := sup.c.cfg.Standbys - len(sup.standbys)
	stopped := sup.stopped
	sup.mu.Unlock()
	if stopped || want <= 0 {
		return
	}
	sb := sup.buildStandby()
	sup.mu.Lock()
	if sup.stopped || len(sup.standbys) >= sup.c.cfg.Standbys {
		sup.mu.Unlock()
		sb.sched.Close()
		return
	}
	sup.standbys = append(sup.standbys, sb)
	sup.mu.Unlock()
}

// resetClocks zeroes the pooled standbys' simulated clocks alongside
// the cluster's (a standby constructed during warm-up must not carry
// clock skew into the measured window it is promoted into).
func (sup *supervisor) resetClocks() {
	sup.mu.Lock()
	pool := append([]*shard(nil), sup.standbys...)
	sup.mu.Unlock()
	for _, sb := range pool {
		sb.sched.ResetClocks()
	}
}

// stop shuts the supervisor down for Close: the loop and any in-flight
// repairs finish, then the unpromoted standbys tear down.
func (sup *supervisor) stop() {
	close(sup.stopc)
	sup.wg.Wait()
	sup.mu.Lock()
	sup.stopped = true
	pool := sup.standbys
	sup.standbys = nil
	sup.mu.Unlock()
	for _, sb := range pool {
		sb.sched.Close()
	}
}
