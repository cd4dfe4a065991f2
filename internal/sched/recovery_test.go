package sched

import (
	"errors"
	"strings"
	"testing"
	"time"

	"xehe/internal/gpu"
)

// mustFinish fails the test if f does not return within the deadline —
// the recovery contract says Drain and Close must never wedge on a
// killed shard.
func mustFinish(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatalf("%s wedged after a shard kill", what)
	}
}

// TestKillAllShardsFailsWithoutWedging pins the no-survivor corner: an
// in-flight job whose every replay target dies reports ErrShardLost —
// it is never silently dropped — and Drain/Close still return. The
// surrendered stamps must also have been re-absolutized, so the
// failure is accounted against the job's class without corrupting the
// latency window.
func TestKillAllShardsFailsWithoutWedging(t *testing.T) {
	h := sharedHarness(t)
	c := newTestCluster(t, h, 1, gpu.Device1Spec(), gpu.Device1Spec())
	// Whichever shard picks up a batch dies on it: the job surrenders
	// off shard 0, replays on shard 1, surrenders again, and has
	// nowhere left to go.
	c.Faults().KillShardAfter(0, 1)
	c.Faults().KillShardAfter(1, 1)

	vals := make([]complex128, h.Params.Slots())
	job := NewJob(h.Encrypt(vals))
	job.SquareRelinRescale(0)
	fut, err := c.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	mustFinish(t, "Drain", c.Drain)
	if _, err := fut.Wait(); !errors.Is(err, ErrShardLost) {
		t.Fatalf("Wait = %v, want ErrShardLost (no shard left to replay on)", err)
	}
	st := c.Stats()
	if st.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", st.Failed)
	}
	if st.Killed != 2 {
		t.Fatalf("Killed = %d, want 2", st.Killed)
	}
	mustFinish(t, "Close", c.Close)
}

// TestReplayedProducerErrorPropagation pins error propagation across a
// replay: a graph producer that is surrendered by a killed shard and
// then fails for real on the replay shard (broken Galois key, panics
// in-kernel) must fail its consumers with the per-edge dependency
// attribution — exactly as if it had failed in place — without
// wedging Drain or stranding pins.
func TestReplayedProducerErrorPropagation(t *testing.T) {
	h := brokenKeys(sharedHarness(t))
	c := newClusterWith(t, h, shards(gpu.Device1Spec(), gpu.Device1Spec()), schedConfig(1))
	// An idle equal-weight cluster routes the first job to shard 0
	// (ties break to the lowest index); its first batch kills the
	// shard, so the broken producer replays on shard 1 and fails there.
	c.Faults().KillShardAfter(0, 1)

	vals := make([]complex128, h.Params.Slots())
	bad := NewJob(h.Encrypt(vals))
	bad.Rotate(0, brokenRotation)
	badFut, err := c.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	cons := NewJob(h.Encrypt(vals))
	cons.Add(0, cons.InputFrom(badFut))
	consFut, err := c.Submit(cons)
	if err != nil {
		t.Fatal(err)
	}
	grand := NewJob()
	grand.Rotate(grand.InputFrom(consFut), 1)
	grandFut, err := c.Submit(grand)
	if err != nil {
		t.Fatal(err)
	}

	mustFinish(t, "Drain", c.Drain)
	if _, err := badFut.Wait(); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("replayed broken producer error = %v, want in-kernel panic attribution", err)
	}
	for name, fut := range map[string]*Future{"consumer": consFut, "grandchild": grandFut} {
		_, err := fut.Wait()
		if err == nil {
			t.Fatalf("%s of failed replayed producer reported success", name)
		}
		for _, want := range []string{"dependency input", "producer job failed"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q missing %q", name, err, want)
			}
		}
	}
	st := c.Stats()
	if st.Replayed < 1 {
		t.Fatalf("Replayed = %d, want >= 1 (the producer must have gone through surrender)", st.Replayed)
	}
	if st.Failed != 3 {
		t.Fatalf("Failed = %d, want 3 (producer + both dependents)", st.Failed)
	}
}
