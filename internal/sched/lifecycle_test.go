package sched

import (
	"testing"

	"xehe/internal/gpu"
)

var (
	stateNames = [numStates]string{"standby", "open", "draining", "closed", "killed", "replaced"}
	eventNames = [numEvents]string{"publish", "kill", "drain", "drained", "close", "replace"}

	// legalMoves lists every transition the lifecycle allows; every other
	// (state, event) pair must be refused.
	legalMoves = map[[2]int]shardState{
		{int(stateStandby), int(evPublish)}:  stateOpen,
		{int(stateStandby), int(evClose)}:    stateClosed,
		{int(stateOpen), int(evKill)}:        stateKilled,
		{int(stateOpen), int(evDrain)}:       stateDraining,
		{int(stateOpen), int(evClose)}:       stateClosed,
		{int(stateDraining), int(evDrained)}: stateClosed,
		{int(stateKilled), int(evReplace)}:   stateReplaced,
	}
	// healthOf is what Health prints in each state with no sick budget.
	healthOf = [numStates]string{"ok", "ok", "closed", "closed", "killed", "killed"}
)

// lifeSnapshot is everything an event on a shard can change: a refused
// event must leave all of it as it was.
type lifeSnapshot struct {
	state                            shardState
	health                           string
	killed, added, promoted, drained int64
	shards                           int
	schedClosed                      bool
}

func snapLife(c *Cluster, sh *Scheduler) lifeSnapshot {
	st := c.Stats()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return lifeSnapshot{sh.state(), sh.health(), st.Killed, st.Added, st.StandbyPromoted, st.Drained, c.Shards(), sh.closed}
}

// lifeEvents are the lifecycle events as a caller delivers them. Each
// reports whether the caller came to own the shard's exit (for the
// calls that say so) and is safe to fire at a shard in any state.
var lifeEvents = []struct {
	name string
	ev   event
	fire func(c *Cluster, sh *Scheduler) bool
}{
	{"KillShard", evKill, func(c *Cluster, sh *Scheduler) bool { return c.Faults().KillShard(sh.id) }},
	{"KillShardAfter firing", evKill, func(c *Cluster, sh *Scheduler) bool {
		c.Faults().KillShardAfter(sh.id, 1)
		before := c.Stats().Killed
		sh.maybeKill() // what the shard's worker calls as a batch starts
		return c.Stats().Killed > before
	}},
	{"KillNode", evKill, func(c *Cluster, sh *Scheduler) bool { return c.Faults().KillNode(sh.spec.Node) > 0 }},
	{"DrainShard", evDrain, retirement((*Cluster).DrainShard)},
	{"CloseShard", evDrain, retirement((*Cluster).CloseShard)},
	{"standby promotion", evReplace, func(c *Cluster, sh *Scheduler) bool {
		if c.sup == nil {
			return false
		}
		before := c.Stats().StandbyPromoted
		c.sup.onKill(sh)
		return c.Stats().StandbyPromoted > before
	}},
}

// retirement fires DrainShard or CloseShard, which return nothing: the
// caller owned the exit if the shard moved.
func retirement(retire func(*Cluster, int)) func(*Cluster, *Scheduler) bool {
	return func(c *Cluster, sh *Scheduler) bool {
		before := sh.state()
		retire(c, sh.id)
		return sh.state() != before
	}
}

// lifecycleCluster builds a two-shard cluster (a supervisor with one
// warm standby when selfHeal) and brings one shard into state st the
// way production code gets it there. For draining, release lets the
// job that holds the drain open finish.
func lifecycleCluster(t *testing.T, h *Harness, st shardState, selfHeal bool) (c *Cluster, sh *Scheduler, release func()) {
	t.Helper()
	cfg := schedConfig(1)
	cfg.SelfHeal = selfHeal
	if selfHeal {
		cfg.Standbys = 1
	}
	c = newClusterWith(t, h, shards(gpu.Device1Spec(), gpu.Device1Spec()), cfg)
	sh = c.all()[0]
	release = func() {}
	switch st {
	case stateStandby:
		c.sup.mu.Lock()
		sh = c.sup.standbys[0]
		c.sup.mu.Unlock()
	case stateDraining:
		// A job held at its batch hook keeps DrainShard waiting in
		// draining. The hook goes on both shards (a steal may move the
		// job before it starts) and the one it starts on is drained.
		// Installed before any Submit, so a worker reads it through the
		// channel that hands it the batch.
		entered, gate, drained := make(chan *Scheduler, 1), make(chan struct{}), make(chan struct{})
		for _, on := range c.all() {
			on := on
			on.onBatch = func() { entered <- on; <-gate }
		}
		job := NewJob(h.Encrypt(make([]complex128, h.Params.Slots())))
		job.SquareRelinRescale(0)
		fut, err := c.Submit(job)
		if err != nil {
			t.Fatal(err)
		}
		sh = <-entered
		go func() { defer close(drained); c.DrainShard(sh.id) }()
		waitSupervisor(t, "see the shard draining", func() bool { return sh.state() == stateDraining })
		released := false
		release = func() {
			if released {
				return
			}
			released = true
			close(gate)
			<-drained
			if _, err := fut.Wait(); err != nil {
				t.Errorf("job in flight across the drain: %v", err)
			}
		}
		t.Cleanup(release)
	case stateClosed:
		c.DrainShard(0)
	case stateKilled, stateReplaced:
		if !c.Faults().KillShard(0) {
			t.Fatal("KillShard(0) returned false on an open shard")
		}
	}
	if sh.state() != st {
		t.Fatalf("shard is %s, want %s", stateNames[sh.state()], stateNames[st])
	}
	return c, sh, release
}

// TestShardLifecycleTable enumerates the shard lifecycle. First the word
// itself: every (state × event) pair through Scheduler.on — the next state,
// whether the caller owns the exit, the Health string, and probe with
// and without a sick budget. Then the callers: a shard brought into each
// state the way production gets it there takes every event as its API
// delivers it (KillShard, an armed KillShardAfter firing, KillNode,
// DrainShard, CloseShard, a standby promotion, a cold replacement, the
// drain completing, cluster Close). A legal event must move it and hand
// the caller the exit; an illegal one must be refused and change nothing
// — not the state, Health, the Killed/Added/StandbyPromoted/Drained
// counters, the shard count, nor tear the scheduler down. Ignoring on's
// answer in killShard or DrainShard fails here (a kill of a retired
// shard counted and repaired: PR 18's bug), as does a second claim of a
// killed shard's replacement.
func TestShardLifecycleTable(t *testing.T) {
	for s := shardState(0); s < numStates; s++ {
		for e := event(0); e < numEvents; e++ {
			sh := &Scheduler{}
			sh.life.Store(uint32(s))
			next, legal := legalMoves[[2]int{int(s), int(e)}]
			if !legal {
				next = s
			}
			if owned := sh.on(e); owned != legal || sh.state() != next {
				t.Errorf("%s × %s: owned %v, now %s; want owned %v, %s",
					stateNames[s], eventNames[e], owned, stateNames[sh.state()], legal, stateNames[next])
			}
			if sh.on(e) {
				t.Errorf("%s × %s: claimed twice", stateNames[s], eventNames[e])
			}
		}
		sh := &Scheduler{}
		sh.life.Store(uint32(s))
		if got := sh.health(); got != healthOf[s] {
			t.Errorf("%s: health %q, want %q", stateNames[s], got, healthOf[s])
		}
		if got := sh.probe(); got != (s == stateOpen) {
			t.Errorf("%s: probe = %v without a sick budget", stateNames[s], got)
		}
		sh.sick.Store(2)
		wantHealth, wantLeft := healthOf[s], int64(2)
		if s == stateOpen {
			wantLeft = 1 // only a shard in rotation is probed for real
		}
		if healthOf[s] == "ok" {
			wantHealth = "sick"
		}
		if got := sh.health(); got != wantHealth {
			t.Errorf("%s: health %q with a sick budget, want %q", stateNames[s], got, wantHealth)
		}
		if sh.probe() || sh.sick.Load() != wantLeft || sh.state() != s {
			t.Errorf("%s: probe with a sick budget: budget %d, state %s; want a failed probe, %d, unchanged",
				stateNames[s], sh.sick.Load(), stateNames[sh.state()], wantLeft)
		}
	}

	h := sharedHarness(t)
	for s := shardState(0); s < numStates; s++ {
		selfHeal := s != stateKilled // a supervisor would not leave it killed
		t.Run(stateNames[s]+"/refused", func(t *testing.T) {
			c, sh, release := lifecycleCluster(t, h, s, selfHeal)
			before := snapLife(c, sh)
			for _, le := range lifeEvents {
				if _, legal := legalMoves[[2]int{int(s), int(le.ev)}]; legal {
					continue
				}
				if le.fire(c, sh) {
					t.Errorf("%s on a %s shard: the caller was handed the exit", le.name, stateNames[s])
				}
				if after := snapLife(c, sh); after != before {
					t.Errorf("%s on a %s shard changed %+v into %+v", le.name, stateNames[s], before, after)
				}
			}
			// The drain completing, then cluster Close: closed shards stay
			// closed, killed ones keep saying so.
			release()
			wantHealth := healthOf[s]
			if s < stateKilled {
				wantHealth = "closed"
			}
			if s == stateDraining && sh.state() != stateClosed {
				t.Errorf("drain completed: shard is %s, want closed", stateNames[sh.state()])
			}
			c.Close()
			if got := sh.health(); got != wantHealth {
				t.Errorf("%s shard after cluster Close: health %q, want %q", stateNames[s], got, wantHealth)
			}
			if s == stateKilled || s == stateReplaced {
				if sh.state() != s {
					t.Errorf("cluster Close moved a %s shard to %s", stateNames[s], stateNames[sh.state()])
				}
			}
		})
	}

	// The legal moves, each on a fresh open shard.
	for _, le := range lifeEvents {
		if le.ev == evReplace {
			continue
		}
		t.Run("open/"+le.name, func(t *testing.T) {
			c, sh, _ := lifecycleCluster(t, h, stateOpen, false)
			if !le.fire(c, sh) {
				t.Fatalf("%s on an open shard was refused", le.name)
			}
			got, st := snapLife(c, sh), c.Stats()
			want := lifeSnapshot{state: stateKilled, health: "killed", killed: 1, shards: 2}
			if le.ev == evDrain {
				want = lifeSnapshot{state: stateClosed, health: "closed", shards: 2, schedClosed: true}
			}
			if got != want {
				t.Errorf("%s on an open shard: %+v, want %+v", le.name, got, want)
			}
			if st.Health[1] != "ok" {
				t.Errorf("the other shard reads %q", st.Health[1])
			}
		})
	}

	// Supervisor replace, warm: the kill's owner promotes the standby
	// (standby → open) and claims the repair (killed → replaced) once —
	// by the time the pool is restocked a full supervisor round has seen
	// the dead shard and must not have built a second replacement.
	t.Run("killed/standby promotion", func(t *testing.T) {
		c, dead, _ := lifecycleCluster(t, h, stateReplaced, true)
		waitSupervisor(t, "restock the pool and finish its builds", func() bool {
			c.sup.mu.Lock()
			defer c.sup.mu.Unlock()
			return len(c.sup.standbys) == 1 && len(c.sup.slots) == 0
		})
		got := snapLife(c, dead)
		if want := (lifeSnapshot{state: stateReplaced, health: "killed", killed: 1, added: 1, promoted: 1, shards: 3}); got != want {
			t.Errorf("after the promotion: %+v, want %+v", got, want)
		}
		if sb := c.all()[2]; sb.state() != stateOpen || sb.health() != "ok" {
			t.Errorf("promoted standby is %s (%s), want open (ok)", stateNames[sb.state()], sb.health())
		}
	})
	// Supervisor replace, cold: the control loop claims it and builds.
	t.Run("killed/cold replacement", func(t *testing.T) {
		cfg := schedConfig(1)
		cfg.SelfHeal = true
		c := newClusterWith(t, h, shards(gpu.Device1Spec(), gpu.Device1Spec()), cfg)
		dead := c.all()[0]
		c.Faults().KillShard(0)
		waitSupervisor(t, "publish the cold replacement", func() bool { return c.Shards() == 3 })
		got := snapLife(c, dead)
		if want := (lifeSnapshot{state: stateReplaced, health: "killed", killed: 1, added: 1, shards: 3}); got != want {
			t.Errorf("after the cold replacement: %+v, want %+v", got, want)
		}
		if repl := c.all()[2]; repl.state() != stateOpen || repl.spec != dead.spec {
			t.Errorf("replacement is %s on %+v, want open on the dead shard's spec", stateNames[repl.state()], repl.spec)
		}
	})
}
