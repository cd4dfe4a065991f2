package sched

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"xehe/internal/gpu"
)

// selfHealCluster builds a cluster of host-local shards with the
// supervisor enabled and the given standby pool.
func selfHealCluster(t testing.TB, h *Harness, standbys int, devs ...gpu.DeviceSpec) *Cluster {
	t.Helper()
	cfg := schedConfig(2)
	selfHeal(standbys)(&cfg)
	return newClusterWith(t, h, shards(devs...), cfg)
}

// waitSupervisor polls until the supervisor has done what is awaited:
// its loop runs on a host wall-clock ticker, so there is no event to
// block on.
func waitSupervisor(t testing.TB, what string, done func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !done() {
		if time.Now().After(deadline) {
			t.Fatalf("supervisor did not %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSelfHealRebuildsRemoteSpec pins what a replacement is: the dead
// shard's spec built again. A shard behind a network hop that is killed
// under the supervisor comes back — promoted from the standby pool or
// cold-rebuilt — behind the same hop (its device counts the crossings,
// and the same jobs cost more simulated time on it than on a host-local
// twin), at the same routing weight, in the failure domain the rule
// gives it (cold repair: the dead shard's node; standby: a fresh one),
// and every result on it is bit-identical to the serial path.
func TestSelfHealRebuildsRemoteSpec(t *testing.T) {
	h := sharedHarness(t)
	link := NetLink{LatencySeconds: 3e-6, GBps: 8}
	for _, tc := range []struct {
		name     string
		standbys int
		node     int
	}{
		{"standby", 1, 2}, // one above the fleet's nodes 0 and 1
		{"cold", 0, 0},    // the dead shard's
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := schedConfig(1)
			cfg.SelfHeal = true
			cfg.Standbys = tc.standbys
			c := newClusterWith(t, h, []ShardSpec{
				{Device: gpu.Device1Spec(), Node: 0, Link: link},
				{Device: gpu.Device1Spec(), Node: 1, Link: link},
			}, cfg)
			twin := newTestCluster(t, h, 1, gpu.Device1Spec())

			if !c.Faults().KillShard(0) {
				t.Fatal("KillShard(0) returned false")
			}
			waitSupervisor(t, "replace the killed shard", func() bool { return c.Shards() == 3 })
			// Retire the survivor: the replacement serves every job below.
			mustFinish(t, "DrainShard", func() { c.DrainShard(1) })
			dead, repl := c.all()[0], c.all()[2]
			if repl.spec.Device.Name != dead.spec.Device.Name || repl.spec.Link != link {
				t.Fatalf("replacement spec = %s behind %+v, want %s behind %+v",
					repl.spec.Device.Name, repl.spec.Link, dead.spec.Device.Name, link)
			}
			if repl.weight != dead.weight {
				t.Errorf("replacement weight = %g, want the source's %g", repl.weight, dead.weight)
			}
			if repl.spec.Node != tc.node {
				t.Errorf("replacement node = %d, want %d", repl.spec.Node, tc.node)
			}

			rng := rand.New(rand.NewSource(9003))
			for i := 0; i < 4; i++ {
				cs := h.RandomCase(rng, 4)
				want, err := h.RunSerial(cs.Job)
				if err != nil {
					t.Fatal(err)
				}
				// One job at a time on both, so the two clocks price the
				// same batches and differ by the hop alone.
				for _, cl := range []*Cluster{c, twin} {
					fut, err := cl.Submit(cs.Job)
					if err != nil {
						t.Fatalf("job %d: %v", i, err)
					}
					got, err := fut.Wait()
					if err != nil {
						t.Fatalf("job %d: %v", i, err)
					}
					if err := SameCiphertext(got, want); err != nil {
						t.Fatalf("job %d diverges from the serial path: %v", i, err)
					}
				}
			}
			mustFinish(t, "Drain", c.Drain)
			twin.Drain()

			if ls := repl.Device().LinkStats(); ls.Hops == 0 || ls.HopCycles <= 0 {
				t.Fatalf("replacement crossed its link %d times (%g cycles): the hop was not rebuilt", ls.Hops, ls.HopCycles)
			}
			if remote, local := repl.Device().SimulatedSeconds(), twin.SimulatedSeconds(); remote <= local {
				t.Fatalf("replacement ran the jobs in %g simulated s, a host-local twin in %g: the hop costs nothing", remote, local)
			}
			st := c.Stats()
			if st.Failed != 0 || st.StandbyPromoted != int64(tc.standbys) {
				t.Fatalf("Failed = %d, StandbyPromoted = %d, want 0 and %d", st.Failed, st.StandbyPromoted, tc.standbys)
			}
			if st.PerShard[2].Jobs != 4 {
				t.Fatalf("replacement ran %d jobs, want all 4", st.PerShard[2].Jobs)
			}
		})
	}
}

// TestStandbyNodesStayFresh pins the standby's failure domain: it is
// allocated when the standby is built, above every node published by
// then. Counted once from the constructor's shards, the sequence handed
// the restock after a first promotion the node a caller's AddShard had
// taken in the meantime, and killing that node took both shards.
func TestStandbyNodesStayFresh(t *testing.T) {
	h := sharedHarness(t)
	c := selfHealCluster(t, h, 1, gpu.Device1Spec(), gpu.Device1Spec()) // nodes 0 and 1, standby on 2
	added, err := c.AddShard(ShardSpec{Device: gpu.Device1Spec(), Node: 3})
	if err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	pooled := func() bool {
		c.sup.mu.Lock()
		defer c.sup.mu.Unlock()
		return len(c.sup.standbys) == 1
	}
	// Two kills, two promotions: the second standby is the restock.
	for i := 0; i < 2; i++ {
		waitSupervisor(t, "restock the standby pool", pooled)
		if !c.Faults().KillShard(i) {
			t.Fatalf("KillShard(%d) returned false", i)
		}
	}
	if st := c.Stats(); st.StandbyPromoted != 2 {
		t.Fatalf("StandbyPromoted = %d, want 2", st.StandbyPromoted)
	}
	seen := map[int]int{}
	for _, sh := range c.all() {
		if sh.state() == stateOpen {
			seen[sh.spec.Node]++
		}
	}
	for node, n := range seen {
		if n != 1 {
			t.Errorf("%d open shards share node %d: a standby's failure domain was not fresh", n, node)
		}
	}
	if n := c.Faults().KillNode(3); n != 1 {
		t.Fatalf("KillNode(3) killed %d shards, want only the added one", n)
	}
	if got := c.Faults().Health(added); got != "killed" {
		t.Fatalf("added shard health = %q, want killed", got)
	}
}

// TestRetryExhaustionSurfacesOriginalError pins the budget's edge: a
// link that faults every crossing defeats any finite budget, so the
// job must fail with the original gpu.ErrLinkFault — never a wedge,
// never a masked error — and the attempts must still be counted.
func TestRetryExhaustionSurfacesOriginalError(t *testing.T) {
	h := sharedHarness(t)
	cfg := schedConfig(1)
	cfg.Retry = RetryPolicy{MaxAttempts: 3}
	link := NetLink{LatencySeconds: 3e-6, GBps: 8}
	specs := []ShardSpec{
		{Device: gpu.Device1Spec(), Node: 0, Link: link},
	}
	c := newClusterWith(t, h, specs, cfg)

	// Far more faults than any attempt could consume: every submission
	// on this shard is lost, on the first run and on every retry.
	c.Faults().FailHops(0, 1<<20)

	vals := make([]complex128, h.Params.Slots())
	job := NewJob(h.Encrypt(vals))
	job.SquareRelinRescale(0)
	fut, err := c.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	mustFinish(t, "Drain", c.Drain)
	if _, err := fut.Wait(); !errors.Is(err, gpu.ErrLinkFault) {
		t.Fatalf("Wait = %v, want the original gpu.ErrLinkFault after budget exhaustion", err)
	}
	st := c.Stats()
	if st.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", st.Failed)
	}
	if st.RetryAttempts < 1 {
		t.Fatalf("RetryAttempts = %d, want >= 1 (the budget must have been spent, not skipped)", st.RetryAttempts)
	}
	mustFinish(t, "Close", c.Close)
}

// TestDrainShardNoReplay pins the graceful-retirement contract:
// draining a shard under load re-routes its queued backlog without
// replay — in-flight batches settle in place, queued jobs move as-is —
// so every job completes bit-identically with Replayed exactly zero
// (the counter that separates a drain from a fail-stop).
func TestDrainShardNoReplay(t *testing.T) {
	h := sharedHarness(t)
	// A deliberately narrow pipeline (one worker, single-job batches,
	// which it pulls one at a time) so most of each shard's share is
	// still in the pending queue when the drain hits — the hand-off
	// path, not just the settle-in-place path, is exercised.
	cfg := schedConfig(1)
	cfg.MaxBatch = 1
	cfg.PendingCap = 64
	c := newClusterWith(t, h, shards(gpu.Device1Spec(), gpu.Device1Spec()), cfg)

	// Each shard's single worker is held twice at its batch hook (set
	// before any Submit, so the worker reads it after taking qmu to pull
	// a batch): before its first batch until everything is submitted,
	// and before its second until the drain has taken the queue. In
	// between it runs exactly one long op chain, which moves
	// its clock, and the light jobs behind it are still pending when the
	// drain hits — held, not raced: shard 1 never goes idle, so nothing
	// steals shard 0's backlog first.
	start, drainedOff := make(chan struct{}), make(chan struct{})
	for _, sh := range c.all() {
		batches := 0
		sh.onBatch = func() {
			switch batches++; batches {
			case 1:
				<-start
			case 2:
				<-drainedOff
			}
		}
	}
	rng := rand.New(rand.NewSource(6001))
	vals := make([]complex128, h.Params.Slots())
	heavies := make([]*Job, 2)
	for i := range heavies {
		heavies[i] = NewJob(h.Encrypt(vals))
		r := heavies[i].Add(0, 0)
		for k := 0; k < 15; k++ {
			r = heavies[i].Add(r, r)
		}
	}
	const nJobs = 24
	cases := make([]*Case, nJobs)
	for i := range cases {
		cases[i] = h.RandomCase(rng, 4)
	}

	heavyFuts := make([]*Future, len(heavies))
	for i, hj := range heavies {
		fut, err := c.Submit(hj)
		if err != nil {
			t.Fatalf("heavy job %d: %v", i, err)
		}
		heavyFuts[i] = fut
	}
	futs := make([]*Future, nJobs)
	for i := range cases {
		fut, err := c.Submit(cases[i].Job)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		futs[i] = fut
	}
	// One more job goes straight onto shard 0, with a deadline that
	// shard's clock passes while the job is still queued — in the light
	// jobs' class, so it sits at the tail of their backlog and is the
	// first the drain takes. Relocation must carry the overdrawn budget
	// across: shard 1, whose clock reads something else, still settles
	// it as a miss.
	src := c.all()[0]
	late := NewJob(h.Encrypt(vals)).WithClass(cases[0].Job.Class).WithDeadline(1e-9)
	late.Add(0, 0)
	lateFut, err := src.Submit(late)
	if err != nil {
		t.Fatalf("late job: %v", err)
	}
	expired := src.Device().SimulatedSeconds() + 2e-9
	close(start)
	mustFinish(t, "shard 0's clock passing the late job's deadline", func() {
		for src.Device().SimulatedSeconds() <= expired {
			runtime.Gosched()
		}
	})
	// Drain while shard 0's worker has one batch behind it and is held
	// before the next: the queued light jobs must move through the
	// hand-off path, and only then may the workers go on.
	drained := make(chan struct{})
	go func() { defer close(drained); c.DrainShard(0) }()
	waitSupervisor(t, "move the queued backlog through the drain path", func() bool { return c.Stats().Drained >= 1 })
	close(drainedOff)
	mustFinish(t, "DrainShard", func() { <-drained })
	if got := c.Faults().Health(0); got != "closed" {
		t.Fatalf("drained shard health = %q, want closed", got)
	}
	mustFinish(t, "Drain", c.Drain)

	for i, fut := range heavyFuts {
		got, err := fut.Wait()
		if err != nil {
			t.Fatalf("heavy job %d: %v (in-flight work must settle in place)", i, err)
		}
		want, err := h.RunSerial(heavies[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := SameCiphertext(got, want); err != nil {
			t.Fatalf("heavy job %d: drained result diverges from serial path: %v", i, err)
		}
	}
	for i, fut := range futs {
		got, err := fut.Wait()
		if err != nil {
			t.Fatalf("job %d: %v (a drain must not fail jobs)", i, err)
		}
		want, err := h.RunSerial(cases[i].Job)
		if err != nil {
			t.Fatal(err)
		}
		if err := SameCiphertext(got, want); err != nil {
			t.Fatalf("job %d: drained result diverges from serial path: %v", i, err)
		}
	}

	st := c.Stats()
	if st.Replayed != 0 {
		t.Fatalf("Replayed = %d, want 0 — a graceful drain must never pay the replay cost", st.Replayed)
	}
	if st.Failed != 0 {
		t.Fatalf("Failed = %d, want 0", st.Failed)
	}
	if st.Drained < 1 {
		t.Fatalf("Drained = %d, want >= 1 (the queued backlog must move through the drain path)", st.Drained)
	}
	if _, err := lateFut.Wait(); err != nil {
		t.Fatalf("late job: %v", err)
	}
	if pc := st.PerShard[1].PerClass[late.Class]; pc.DeadlineMiss != 1 || pc.DeadlineHit != 0 {
		t.Fatalf("survivor deadline outcomes = %d miss / %d hit, want 1/0 (the job whose deadline expired on shard 0 must relocate and still miss)",
			pc.DeadlineMiss, pc.DeadlineHit)
	}
	if pc := st.PerClass[late.Class]; pc.DeadlineMiss != 1 || pc.DeadlineHit != 0 {
		t.Fatalf("cluster deadline outcomes = %d miss / %d hit, want 1/0", pc.DeadlineMiss, pc.DeadlineHit)
	}
	// Conservation across the hand-off (the teardown checks nothing is
	// outstanding and every class completed what it admitted).
	if want := int64(nJobs + len(heavies) + 1); st.Jobs != want {
		t.Fatalf("after the drain: %d jobs completed, want %d", st.Jobs, want)
	}
	// Idempotent: a second drain of the same shard is a no-op.
	mustFinish(t, "repeat DrainShard", func() { c.DrainShard(0) })
}

// TestDrainShardMigratesResidents pins the drain's graph half: a
// device-resident output with a live consumer reference is pre-copied
// to the host when its owner shard drains — counted in Migrated, pins
// force-released — so a consumer arriving afterwards (necessarily on
// another shard) resolves against the host copy bit-identically. The
// consumer edge is registered white-box via onSettled, exactly what a
// submitted consumer's registerDeps does, so the residency is
// deterministically alive when the drain runs. Closing the scheduler
// before the pre-copy once freed the pinned output under its future,
// which then read back as zeros with a nil error.
func TestDrainShardMigratesResidents(t *testing.T) {
	t.Run("DrainShard", testDrainMigratesResidents)
}

func testDrainMigratesResidents(t *testing.T) {
	h := sharedHarness(t)
	c := newTestCluster(t, h, 1, gpu.Device1Spec())

	vals := make([]complex128, h.Params.Slots())
	for i := range vals {
		vals[i] = complex(float64(i%7)*0.25, 0)
	}
	prodIn, consIn := h.Encrypt(vals), h.Encrypt(vals)
	prod := NewJob(prodIn)
	prod.Add(0, 0)
	// Count a consumer into the residency plan before the producer
	// settles: the worker is held at the batch until the edge is in.
	_, release := holdFirstBatch(c.all()[0])
	pf, err := c.Submit(prod)
	if err != nil {
		t.Fatal(err)
	}
	if !pf.onSettled(func() {}) {
		t.Fatal("producer settled before the consumer edge registered")
	}
	release()
	c.Drain()

	if _, err := c.AddShard(ShardSpec{Device: gpu.Device1Spec(), Node: 1}); err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	mustFinish(t, "DrainShard", func() { c.DrainShard(0) })
	if n := c.all()[0].Cache().PinnedCount(); n != 0 {
		t.Fatalf("drained shard PinnedCount = %d, want 0 (migration must force-release)", n)
	}
	pf.mu.Lock()
	if r := pf.resident; r == nil || !r.released {
		t.Errorf("the retired shard's resident output is still live: migration must force-release it")
	}
	pf.mu.Unlock()
	if st := c.Stats(); st.Migrated < 1 {
		t.Fatalf("Migrated = %d, want >= 1 (the resident output must have moved to the host)", st.Migrated)
	}

	// A consumer submitted after the drain finds the residency released
	// and falls back to the migrated host copy.
	cons := NewJob(consIn)
	cons.Add(0, cons.InputFrom(pf))
	cf, err := c.Submit(cons)
	if err != nil {
		t.Fatal(err)
	}
	mustFinish(t, "Drain", c.Drain)
	got, err := cf.Wait()
	if err != nil {
		t.Fatalf("consumer of migrated resident: %v", err)
	}

	wantProd, err := h.RunSerial(prod)
	if err != nil {
		t.Fatal(err)
	}
	gotProd, err := pf.Wait()
	if err != nil {
		t.Fatalf("producer Wait after migration: %v", err)
	}
	if err := SameCiphertext(gotProd, wantProd); err != nil {
		t.Fatalf("migrated producer output diverges: %v", err)
	}
	serialCons := NewJob(consIn, wantProd)
	serialCons.Add(0, 1)
	wantCons, err := h.RunSerial(serialCons)
	if err != nil {
		t.Fatal(err)
	}
	if err := SameCiphertext(got, wantCons); err != nil {
		t.Fatalf("consumer of migrated resident diverges from serial path: %v", err)
	}
}

// TestCloseAndDrainOnKilledShardAreNoops is the idempotence regression
// test: retiring a shard that was already fail-stopped — by DrainShard,
// once or twice — must be a plain no-op, not a second evacuation, a
// double-close, or a wedge; the cluster keeps serving afterwards.
func TestCloseAndDrainOnKilledShardAreNoops(t *testing.T) {
	h := sharedHarness(t)
	c := newTestCluster(t, h, 1, gpu.Device1Spec(), gpu.Device1Spec())

	if !c.Faults().KillShard(0) {
		t.Fatal("KillShard(0) returned false")
	}
	before := c.Stats()
	mustFinish(t, "DrainShard on killed shard", func() { c.DrainShard(0) })
	mustFinish(t, "second DrainShard on killed shard", func() { c.DrainShard(0) })
	after := c.Stats()
	if got := c.Faults().Health(0); got != "killed" {
		t.Fatalf("health after no-op retirements = %q, want killed (the kill's state must stand)", got)
	}
	if after.Drained != before.Drained || after.Migrated != before.Migrated {
		t.Fatalf("no-op retirements moved counters: Drained %d->%d, Migrated %d->%d",
			before.Drained, after.Drained, before.Migrated, after.Migrated)
	}

	vals := make([]complex128, h.Params.Slots())
	job := NewJob(h.Encrypt(vals))
	job.SquareRelinRescale(0)
	fut, err := c.Submit(job)
	if err != nil {
		t.Fatalf("Submit after no-op retirements: %v", err)
	}
	mustFinish(t, "Drain", c.Drain)
	if _, err := fut.Wait(); err != nil {
		t.Fatalf("job after no-op retirements: %v", err)
	}

	// The mirror: killing a shard that was already retired is as much a
	// no-op — by KillShard, by KillNode, or by a KillShardAfter armed
	// before the retirement and firing on a batch that settles in place.
	// With the supervisor on and a standby in stock, a kill that went
	// through would be counted, promote the standby and grow a cluster
	// that was deliberately scaled down.
	hc := selfHealCluster(t, h, 1, gpu.Device1Spec(), gpu.Device1Spec(), gpu.Device1Spec())
	hc.Faults().KillShardAfter(1, 1)
	mustFinish(t, "DrainShard", func() { hc.DrainShard(0) })
	mustFinish(t, "DrainShard", func() { hc.DrainShard(1) })
	before, shards := hc.Stats(), hc.Shards()
	if hc.Faults().KillShard(0) {
		t.Error("KillShard on a drained shard returned true")
	}
	if n := hc.Faults().KillNode(hc.all()[1].spec.Node); n != 0 {
		t.Errorf("KillNode on a closed shard's node killed %d shards, want 0", n)
	}
	hc.all()[1].maybeKill() // the armed countdown reaching zero
	fut, err = hc.Submit(job)
	if err != nil {
		t.Fatalf("Submit after no-op kills: %v", err)
	}
	mustFinish(t, "Drain", hc.Drain) // a job's worth of supervisor ticks
	if _, err := fut.Wait(); err != nil {
		t.Fatalf("job after no-op kills: %v", err)
	}
	after = hc.Stats()
	if after.Killed != before.Killed || after.Added != before.Added ||
		after.StandbyPromoted != before.StandbyPromoted || hc.Shards() != shards {
		t.Fatalf("kills of retired shards took effect: Killed %d->%d, Added %d->%d, StandbyPromoted %d->%d, Shards %d->%d",
			before.Killed, after.Killed, before.Added, after.Added,
			before.StandbyPromoted, after.StandbyPromoted, shards, hc.Shards())
	}
	for i := 0; i < 2; i++ {
		if got := hc.Faults().Health(i); got != "closed" {
			t.Errorf("retired shard %d health after kills = %q, want closed", i, got)
		}
		if sh := hc.all()[i]; sh.Killed() || sh.state() != stateClosed {
			t.Errorf("retired shard %d is marked killed/replaced: the supervisor would repair it", i)
		}
	}
}
