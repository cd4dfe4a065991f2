package sched

import (
	"math/rand"
	"sync"
	"testing"

	"xehe/internal/gpu"
)

// addSpec builds a host-local shard spec for AddShard tests.
func addSpec(node int) ShardSpec {
	return ShardSpec{Device: gpu.Device1Spec(), Node: node}
}

// TestAddShardRoutesDuringWarmup pins elastic scale-up against live
// traffic: jobs submitted concurrently with AddShard — including while
// the new shard warms its buffer cache — all route correctly and
// complete bit-identically, and the grown cluster's counters stay
// consistent.
func TestAddShardRoutesDuringWarmup(t *testing.T) {
	h := sharedHarness(t)
	cfg := schedConfig(2)
	cfg.WarmBuffers = 32 // make the new shard's construction do real warm-up work
	c := newClusterWith(t, h, []ShardSpec{addSpec(0)}, cfg)

	rng := rand.New(rand.NewSource(31337))
	const nJobs = 20
	cases := make([]*Case, nJobs)
	for i := range cases {
		cases[i] = h.RandomCase(rng, 4)
	}

	futs := make([]*Future, nJobs)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range cases {
			fut, err := c.Submit(cases[i].Job)
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			futs[i] = fut
		}
	}()
	idx, err := c.AddShard(addSpec(1)) // races with the submitter on purpose
	if err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	if idx != 1 {
		t.Fatalf("AddShard index = %d, want 1", idx)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	c.Drain()

	for i, fut := range futs {
		got, err := fut.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		want, err := h.RunSerial(cases[i].Job)
		if err != nil {
			t.Fatal(err)
		}
		if err := SameCiphertext(got, want); err != nil {
			t.Fatalf("job %d: result diverges on grown cluster: %v", i, err)
		}
	}

	st := c.Stats()
	if st.Added != 1 || c.Shards() != 2 {
		t.Fatalf("Added = %d, Shards = %d, want 1 and 2", st.Added, c.Shards())
	}
	if st.Jobs != nJobs || st.Failed != 0 {
		t.Fatalf("stats = %d jobs / %d failed, want %d/0", st.Jobs, st.Failed, nJobs)
	}
	var routed int64
	for _, r := range st.Routed {
		routed += r
	}
	if routed != nJobs {
		t.Fatalf("routed counts sum to %d, want %d", routed, nJobs)
	}
}

// TestAddCloseChurn pins counter consistency under membership churn:
// rounds of AddShard + DrainShard with traffic in between must keep
// the aggregate stats coherent — every submission completes, per-class
// submitted equals completed, and the growth/retirement counters match
// the churn.
func TestAddCloseChurn(t *testing.T) {
	h := sharedHarness(t)
	c := newClusterWith(t, h, []ShardSpec{addSpec(0), addSpec(1)}, schedConfig(1))

	rng := rand.New(rand.NewSource(2025))
	var futs []*Future
	var cases []*Case
	submitBurst := func(n int) {
		for i := 0; i < n; i++ {
			cs := h.RandomCase(rng, 3)
			fut, err := c.Submit(cs.Job)
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			cases = append(cases, cs)
			futs = append(futs, fut)
		}
	}

	const rounds = 3
	for r := 0; r < rounds; r++ {
		submitBurst(6)
		if _, err := c.AddShard(addSpec(2 + r)); err != nil {
			t.Fatalf("round %d: AddShard: %v", r, err)
		}
		c.DrainShard(r) // retire the oldest member; its backlog re-routes
		submitBurst(4)
	}
	c.Drain()

	for i, fut := range futs {
		got, err := fut.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		want, err := h.RunSerial(cases[i].Job)
		if err != nil {
			t.Fatal(err)
		}
		if err := SameCiphertext(got, want); err != nil {
			t.Fatalf("job %d: result diverges under churn: %v", i, err)
		}
	}

	st := c.Stats()
	total := int64(len(futs))
	if st.Jobs != total || st.Failed != 0 {
		t.Fatalf("stats = %d jobs / %d failed, want %d/0", st.Jobs, st.Failed, total)
	}
	if st.Added != rounds {
		t.Fatalf("Added = %d, want %d", st.Added, rounds)
	}
	if c.Shards() != 2+rounds {
		t.Fatalf("Shards = %d, want %d (closed shards stay counted)", c.Shards(), 2+rounds)
	}
	var subs, comps int64
	for _, pc := range st.PerClass {
		subs += pc.Submitted
		comps += pc.Completed
	}
	if subs != total || comps != total {
		t.Fatalf("per-class submitted/completed = %d/%d, want %d/%d", subs, comps, total, total)
	}
	for i := 0; i < rounds; i++ {
		if got := c.Faults().Health(i); got != "closed" {
			t.Errorf("retired shard %d health = %q, want closed", i, got)
		}
	}
}

// TestAddShardRevivesCluster pins the documented revival semantics:
// with every shard retired Submit returns ErrNoShards (the cluster
// stays open), and a subsequent AddShard brings routing back without a
// restart.
func TestAddShardRevivesCluster(t *testing.T) {
	h := sharedHarness(t)
	c := newClusterWith(t, h, []ShardSpec{addSpec(0)}, schedConfig(1))

	vals := make([]complex128, h.Params.Slots())
	job := NewJob(h.Encrypt(vals))
	job.SquareRelinRescale(0)
	want, err := h.RunSerial(job)
	if err != nil {
		t.Fatal(err)
	}

	fut, err := c.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}

	c.DrainShard(0)
	if _, err := c.Submit(job); err != ErrNoShards {
		t.Fatalf("Submit with all shards retired = %v, want ErrNoShards", err)
	}

	if _, err := c.AddShard(addSpec(1)); err != nil {
		t.Fatalf("AddShard on an emptied cluster: %v", err)
	}
	fut, err = c.Submit(job)
	if err != nil {
		t.Fatalf("Submit after revival = %v, want success", err)
	}
	got, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := SameCiphertext(got, want); err != nil {
		t.Fatalf("revived-cluster result diverges: %v", err)
	}

	// Full Close still wins over revival: afterwards AddShard and
	// Submit both refuse.
	c.Close()
	if _, err := c.AddShard(addSpec(2)); err != ErrClosed {
		t.Fatalf("AddShard after Close = %v, want ErrClosed", err)
	}
	if _, err := c.Submit(job); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}
