package sched

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"xehe/internal/gpu"
	"xehe/internal/qos"
)

// chaosCluster builds a heterogeneous multi-node cluster (two Device1
// nodes plus a Device2 node) coalescing up to maxBatch jobs (0: the
// default), with shard i in failure domain i. Every class blocks when
// its queue is full (Share 1) rather than shedding: these tests are
// about replay, and with two of three shards killed the default
// Interactive slice (Share 0.5 — 8 jobs on one shard at MaxBatch 1)
// loses a race against three submitters now and then.
func chaosCluster(t testing.TB, h *Harness, maxBatch int) *Cluster {
	t.Helper()
	cfg := schedConfig(2)
	cfg.MaxBatch = maxBatch
	cfg.Classes = qos.DefaultClasses()
	for i := range cfg.Classes {
		cfg.Classes[i].Share = 1
	}
	return newClusterWith(t, h, shards(gpu.Device1Spec(), gpu.Device1Spec(), gpu.Device2Spec()), cfg)
}

// TestChaosDifferential is the chaos acceptance harness: randomized
// job chains run on a heterogeneous multi-node cluster while the fault
// plane kills shards mid-run — one deterministically mid-batch via an
// armed countdown, one explicitly mid-submission — and a replacement
// shard is added on a new node. Every job must still complete (a
// healthy shard always exists, so surrendered work replays instead of
// failing) and every result must match the serial reference
// bit-for-bit, coalesced and job-at-a-time (batchShapes). Run with
// -race (make test-race).
func TestChaosDifferential(t *testing.T) {
	h := sharedHarness(t)
	for _, shape := range batchShapes {
		t.Run(shape.name, func(t *testing.T) {
			testChaosDifferential(t, h, shape.maxBatch)
		})
	}
}

func testChaosDifferential(t *testing.T, h *Harness, maxBatch int) {
	const (
		nJobs      = 24
		maxOps     = 5
		submitters = 3
	)
	rng := rand.New(rand.NewSource(int64(7001 + maxBatch)))
	cases := make([]*Case, nJobs)
	for i := range cases {
		cases[i] = h.RandomCase(rng, maxOps)
	}

	c := chaosCluster(t, h, maxBatch)
	// Shard 0 dies deterministically when its second batch starts —
	// from the worker goroutine itself, mid-batch, before anything
	// settles.
	c.Faults().KillShardAfter(0, 2)

	futs := make([]*Future, nJobs)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < nJobs; i += submitters {
				fut, err := c.Submit(cases[i].Job)
				if err != nil {
					t.Errorf("job %d: submit: %v", i, err)
					return
				}
				futs[i] = fut
			}
		}(g)
	}
	// Concurrently with the submitters: kill shard 1 outright, then add
	// a replacement shard on a fresh node — elastic recovery mid-run.
	c.Faults().KillShard(1)
	idx, err := c.AddShard(ShardSpec{Device: gpu.Device1Spec(), Node: 3})
	if err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("submission failed")
	}
	c.Drain()

	for i, fut := range futs {
		got, err := fut.Wait()
		if err != nil {
			t.Fatalf("job %d: %v (with an open shard, killed work must replay, not fail)", i, err)
		}
		want, err := h.RunSerial(cases[i].Job)
		if err != nil {
			t.Fatal(err)
		}
		if err := SameCiphertext(got, want); err != nil {
			t.Fatalf("job %d: chaos result diverges from serial path: %v (ops %v)", i, err, cases[i].Job.Ops)
		}
		if e := MaxSlotError(h.Decrypt(got), cases[i].Expected); e > differentialEps {
			t.Fatalf("job %d: slot error %g > %g", i, e, differentialEps)
		}
	}

	st := c.Stats()
	if st.Failed != 0 {
		t.Fatalf("%d jobs failed under chaos with a healthy shard available", st.Failed)
	}
	if st.Killed < 1 {
		t.Fatalf("Killed = %d, want >= 1 (shard 1 was killed outright)", st.Killed)
	}
	if st.Added != 1 {
		t.Fatalf("Added = %d, want 1", st.Added)
	}
	if c.Faults().Health(1) != "killed" {
		t.Fatalf("shard 1 health = %q, want killed", c.Faults().Health(1))
	}
	if got := c.Faults().Health(idx); got != "ok" {
		t.Fatalf("replacement shard health = %q, want ok", got)
	}
	t.Logf("chaos(MaxBatch %d): killed %d, recovered %d queued, replayed %d in-flight, routed %v",
		maxBatch, st.Killed, st.Recovered, st.Replayed, st.Routed)
}

// TestChaosGraphDifferential extends the chaos contract to job DAGs:
// producers and consumers land on shards that die mid-stream, so
// surrendered consumers rematerialize their dependency values through
// the owner path (the killed node lost its executor, not its memory)
// and replay elsewhere — every downloaded output still bit-identical
// to the serial reference, with zero pinned buffers left behind.
func TestChaosGraphDifferential(t *testing.T) {
	h := sharedHarness(t)
	rng := rand.New(rand.NewSource(8123))
	const nGraphs = 4
	graphs := make([]*GraphCase, nGraphs)
	for i := range graphs {
		graphs[i] = h.RandomGraph(rng, 5, 3)
	}

	c := chaosCluster(t, h, 0)
	c.Faults().KillShardAfter(0, 2)

	futs := make([][]*Future, nGraphs)
	for i, gc := range graphs {
		futs[i] = submitGraph(t, c.Submit, gc)
		if futs[i] == nil {
			t.Fatal("graph submission failed")
		}
		if i == nGraphs/2 {
			c.Faults().KillShard(1)
		}
	}
	c.Drain()

	for i, gc := range graphs {
		serial, err := h.RunGraphSerial(gc)
		if err != nil {
			t.Fatalf("graph %d: serial reference: %v", i, err)
		}
		checkGraph(t, h, gc, futs[i], serial)
	}
	for i, sh := range c.all() {
		if n := sh.sched.Backend().Cache().PinnedCount(); n != 0 {
			t.Errorf("shard %d: PinnedCount = %d after chaos graph drain, want 0", i, n)
		}
	}
	st := c.Stats()
	if st.Killed < 1 {
		t.Fatalf("Killed = %d, want >= 1", st.Killed)
	}
	t.Logf("chaos graphs: killed %d, recovered %d, replayed %d, graph jobs %d, resident hits %d",
		st.Killed, st.Recovered, st.Replayed, st.GraphJobs, st.ResidentHits)
}

// TestChaosRemoteHops runs the differential load over remote shards
// while the fault plane degrades their links (injected delays and
// dropped-and-retransmitted hops): the degraded shard turns sick so
// routing steers around it, simulated time absorbs the retransmits,
// and — since link faults live purely on the timing plane — every
// result is still bit-identical to the serial path.
func TestChaosRemoteHops(t *testing.T) {
	h := sharedHarness(t)
	link := NetLink{LatencySeconds: 3e-6, GBps: 8}
	c := newRemoteCluster(t, h, 2, []NetLink{link, link},
		gpu.Device1Spec(), gpu.Device1Spec())

	rng := rand.New(rand.NewSource(555))
	const nJobs = 16
	cases := make([]*Case, nJobs)
	futs := make([]*Future, nJobs)
	for i := range cases {
		cases[i] = h.RandomCase(rng, 4)
	}
	for i, cs := range cases {
		if i == nJobs/4 {
			c.Faults().DelayHops(1, 40e-6, 8)
		}
		if i == nJobs/2 {
			c.Faults().DropHops(0, 4)
		}
		fut, err := c.Submit(cs.Job)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		futs[i] = fut
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
			t.Fatalf("job %d: result diverged under link faults: %v", i, err)
		}
	}
	var delayed, dropped int64
	for i := range c.all() {
		ls := c.all()[i].sched.Backend().Device().LinkStats()
		delayed += ls.Delayed
		dropped += ls.Dropped
	}
	if delayed == 0 || dropped == 0 {
		t.Fatalf("link faults not consumed: %d delayed, %d dropped hops", delayed, dropped)
	}
	for i, sh := range c.all() {
		checkPoolsReturned(t, fmt.Sprintf("shard %d after the degraded run drained", i), sh.sched.Backend())
	}
}
