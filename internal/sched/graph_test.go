package sched

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"xehe/internal/ckks"
)

// cloneJob copies a generated job so the same GraphCase can be wired
// (InputFrom mutates Deps) and submitted against several schedulers.
func cloneJob(j *Job) *Job {
	c := &Job{
		Inputs:   append([]*ckks.Ciphertext(nil), j.Inputs...),
		Ops:      append([]Op(nil), j.Ops...),
		Class:    j.Class,
		Deadline: j.Deadline,
		keep:     j.keep,
	}
	return c
}

// submitGraph wires and submits a DAG in topological order through
// submit, returning the per-node futures. Safe to call from multiple
// goroutines (each on its own GraphCase).
func submitGraph(t *testing.T, submit func(*Job) (*Future, error), gc *GraphCase) []*Future {
	futs := make([]*Future, len(gc.Nodes))
	for k, node := range gc.Nodes {
		job := cloneJob(node.Job)
		for _, p := range node.DepNodes {
			job.InputFrom(futs[p])
		}
		fut, err := submit(job)
		if err != nil {
			t.Errorf("graph node %d: submit: %v", k, err)
			return nil
		}
		futs[k] = fut
	}
	return futs
}

// checkGraph verifies every node of a drained DAG: kept outputs and
// sinks must match the serial reference bit-for-bit and decrypt to the
// plaintext model; consumed-only outputs must report
// ErrResultDiscarded (their residency was released by the last
// consumer without ever crossing PCIe).
func checkGraph(t *testing.T, h *Harness, gc *GraphCase, futs []*Future, serial []*ckks.Ciphertext) {
	t.Helper()
	for k, node := range gc.Nodes {
		got, err := futs[k].Wait()
		if !node.Keep && gc.Consumers[k] > 0 {
			// A consumed output is normally discarded with the residency;
			// it survives only if a cross-shard consumer (or an explicit
			// Wait) rematerialized it through the host first — then it
			// must still be the exact serial value.
			if errors.Is(err, ErrResultDiscarded) {
				continue
			}
			if err != nil {
				t.Fatalf("node %d: consumed output: %v", k, err)
			}
			if err := SameCiphertext(got, serial[k]); err != nil {
				t.Fatalf("node %d: rematerialized output mismatch: %v", k, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("node %d: %v (ops %v)", k, err, node.Job.Ops)
		}
		if err := SameCiphertext(got, serial[k]); err != nil {
			t.Fatalf("node %d: graph vs serial mismatch: %v (ops %v)", k, err, node.Job.Ops)
		}
		if e := MaxSlotError(decode(h, got), node.Expected); e > differentialEps {
			t.Fatalf("node %d: slot error %g > %g", k, e, differentialEps)
		}
	}
}

// TestGraphChainZeroCopy pins the tentpole contract on the smallest
// graph: a producer→consumer chain where the intermediate never
// crosses PCIe. The consumer's result must match the serial reference
// bit-for-bit, the edge must count as a residency hit, and the
// producer's own future must report ErrResultDiscarded after the
// consumer released the intermediate.
func TestGraphChainZeroCopy(t *testing.T) {
	h := sharedHarness(t)
	s := newScheduler(t, h, 2)

	slots := h.Params.Slots()
	pt := make([]complex128, slots)
	for i := range pt {
		pt[i] = complex(float64(i%7)/7, 0.25)
	}
	in := h.Encrypt(pt)

	prod := NewJob(in, in)
	prod.MulRelinRescale(0, 1)
	prodFut, err := s.Submit(prod)
	if err != nil {
		t.Fatal(err)
	}
	cons := NewJob()
	d := cons.InputFrom(prodFut)
	cons.Rotate(d, 1)
	consFut, err := s.Submit(cons)
	if err != nil {
		t.Fatal(err)
	}

	got, err := consFut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	prodHost, err := h.RunSerial(prod)
	if err != nil {
		t.Fatal(err)
	}
	want, err := h.RunSerialWith(cons, []*ckks.Ciphertext{prodHost})
	if err != nil {
		t.Fatal(err)
	}
	if err := SameCiphertext(got, want); err != nil {
		t.Fatalf("consumer vs serial mismatch: %v", err)
	}

	s.Drain()
	if _, err := prodFut.Wait(); !errors.Is(err, ErrResultDiscarded) {
		t.Fatalf("consumed producer Wait = %v, want ErrResultDiscarded", err)
	}
	st := shardStats(s)
	if st.GraphJobs != 1 {
		t.Fatalf("GraphJobs = %d, want 1", st.GraphJobs)
	}
	if st.ResidentHits != 1 || st.ResidentMisses != 0 {
		t.Fatalf("residency = %d hits / %d misses, want 1/0", st.ResidentHits, st.ResidentMisses)
	}
}

// TestGraphKeepOutput pins the KeepOutput escape hatch: a consumed
// producer marked KeepOutput is downloaded anyway, so both futures
// yield host results matching the serial path.
func TestGraphKeepOutput(t *testing.T) {
	h := sharedHarness(t)
	s := newScheduler(t, h, 2)

	pt := make([]complex128, h.Params.Slots())
	for i := range pt {
		pt[i] = complex(0.5, -0.125)
	}
	in := h.Encrypt(pt)
	prod := NewJob(in, in).KeepOutput()
	prod.MulRelinRescale(0, 1)
	prodFut, err := s.Submit(prod)
	if err != nil {
		t.Fatal(err)
	}
	cons := NewJob()
	cons.Rotate(cons.InputFrom(prodFut), -1)
	consFut, err := s.Submit(cons)
	if err != nil {
		t.Fatal(err)
	}

	prodGot, err := prodFut.Wait()
	if err != nil {
		t.Fatalf("kept producer: %v", err)
	}
	prodWant, err := h.RunSerial(prod)
	if err != nil {
		t.Fatal(err)
	}
	if err := SameCiphertext(prodGot, prodWant); err != nil {
		t.Fatalf("kept producer mismatch: %v", err)
	}
	consGot, err := consFut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	consWant, err := h.RunSerialWith(cons, []*ckks.Ciphertext{prodWant})
	if err != nil {
		t.Fatal(err)
	}
	if err := SameCiphertext(consGot, consWant); err != nil {
		t.Fatalf("consumer mismatch: %v", err)
	}
}

// TestGraphLateConsumerFallsBack pins the host-fallback edge: a
// consumer submitted after its producer completed (no consumers were
// registered at settlement, so the output went to the host) still
// computes the right result, counted as a residency miss.
func TestGraphLateConsumerFallsBack(t *testing.T) {
	h := sharedHarness(t)
	s := newScheduler(t, h, 2)

	pt := make([]complex128, h.Params.Slots())
	in := h.Encrypt(pt)
	prod := NewJob(in, in)
	prod.MulRelinRescale(0, 1)
	prodFut, err := s.Submit(prod)
	if err != nil {
		t.Fatal(err)
	}
	prodHost, err := prodFut.Wait() // settles with zero consumers: downloaded
	if err != nil {
		t.Fatal(err)
	}

	cons := NewJob()
	cons.Rotate(cons.InputFrom(prodFut), 2)
	consFut, err := s.Submit(cons)
	if err != nil {
		t.Fatal(err)
	}
	got, err := consFut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	want, err := h.RunSerialWith(cons, []*ckks.Ciphertext{prodHost})
	if err != nil {
		t.Fatal(err)
	}
	if err := SameCiphertext(got, want); err != nil {
		t.Fatalf("late consumer mismatch: %v", err)
	}
	st := shardStats(s)
	if st.ResidentHits != 0 || st.ResidentMisses != 1 {
		t.Fatalf("residency = %d hits / %d misses, want 0/1", st.ResidentHits, st.ResidentMisses)
	}
}

// TestGraphProducerFailurePropagates is the graph failure contract
// (satellite of the residency work): a producer that fails at run time
// fails every transitive dependent with an error attributing the
// dependency, without wedging Drain or Close, and without leaking or
// stranding a single cache buffer.
func TestGraphProducerFailurePropagates(t *testing.T) {
	h := brokenKeys(sharedHarness(t))

	vals := make([]complex128, h.Params.Slots())
	// Baseline: the panicking rotate strands its in-kernel temporaries
	// in the used pool by design (no handle survives the panic; Close
	// reclaims them as orphans). Measure that cost for the lone bad job,
	// so the graph run below can assert its dependents add nothing.
	base := newScheduler(t, h, 2)
	loneBad := NewJob(h.Encrypt(vals))
	loneBad.Rotate(0, brokenRotation)
	loneFut, err := base.Submit(loneBad)
	if err != nil {
		t.Fatal(err)
	}
	base.Drain()
	if _, err := loneFut.Wait(); err == nil {
		t.Fatal("baseline broken job reported success")
	}
	stranded := base.Cache().UsedCount()
	base.Close()

	s := newScheduler(t, h, 2)
	bad := NewJob(h.Encrypt(vals))
	bad.Rotate(0, brokenRotation)
	badFut, err := s.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	// Two direct dependents and one transitive, plus an unrelated
	// healthy job racing alongside.
	c1 := NewJob()
	c1.Rotate(c1.InputFrom(badFut), 1)
	c1Fut, err := s.Submit(c1)
	if err != nil {
		t.Fatalf("dependent of a pending producer must submit cleanly: %v", err)
	}
	c2 := NewJob(h.Encrypt(vals))
	c2.Add(0, c2.InputFrom(badFut))
	c2Fut, err := s.Submit(c2)
	if err != nil {
		t.Fatal(err)
	}
	c3 := NewJob()
	c3.Rotate(c3.InputFrom(c1Fut), 2)
	c3Fut, err := s.Submit(c3)
	if err != nil {
		t.Fatal(err)
	}
	good := NewJob(h.Encrypt(vals))
	good.SquareRelinRescale(0)
	goodFut, err := s.Submit(good)
	if err != nil {
		t.Fatal(err)
	}

	s.Drain() // must not wedge on the failed subgraph
	if _, err := goodFut.Wait(); err != nil {
		t.Fatalf("healthy job failed: %v", err)
	}
	if _, err := badFut.Wait(); err == nil {
		t.Fatal("broken producer reported success")
	}
	for name, fut := range map[string]*Future{"c1": c1Fut, "c2": c2Fut, "c3": c3Fut} {
		_, err := fut.Wait()
		if err == nil {
			t.Fatalf("%s: dependent of failed producer reported success", name)
		}
		for _, want := range []string{"dependency input", "producer job failed"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q missing %q", name, err, want)
			}
		}
	}
	st := shardStats(s)
	if st.Jobs != 5 || st.Failed != 4 {
		t.Fatalf("stats = %d jobs / %d failed, want 5/4", st.Jobs, st.Failed)
	}
	if st.GraphJobs != 3 {
		t.Fatalf("GraphJobs = %d, want 3", st.GraphJobs)
	}
	cache := s.Cache()
	// The failed dependents never reached a worker, so the only
	// stranded allocations are the panicking producer's own in-kernel
	// temporaries — exactly the lone-job baseline, nothing from the
	// graph machinery.
	if n := cache.UsedCount(); n != stranded {
		t.Fatalf("UsedCount = %d after failed graph, want %d (lone bad job baseline)", n, stranded)
	}
	if n := cache.PinnedCount(); n != 0 {
		t.Fatalf("PinnedCount = %d after failed graph, want 0", n)
	}
	if got := cache.ReleaseAll(); got != stranded {
		t.Fatalf("ReleaseAll reclaimed %d buffers, want %d (only the kernel-panic orphans)", got, stranded)
	}
	if n := cache.UsedCount(); n != 0 {
		t.Fatalf("UsedCount = %d after ReleaseAll, want 0", n)
	}
	if got := cache.ReleaseAll(); got != 0 {
		t.Fatalf("second ReleaseAll reclaimed %d buffers, want 0", got)
	}
	s.Close() // must not wedge either
}

// TestGraphFailedConsumerReleasesResidency pins the other failure
// direction: the producer succeeds and stays resident, one of its
// consumers fails mid-kernel, and the residency must still be fully
// released — the teardown finds no buffer pinned or checked out — while
// the healthy consumer's result stays bit-exact.
func TestGraphFailedConsumerReleasesResidency(t *testing.T) {
	h := brokenKeys(sharedHarness(t))
	s := newScheduler(t, h, 2)

	pt := make([]complex128, h.Params.Slots())
	for i := range pt {
		pt[i] = complex(0.1, 0.2)
	}
	in := h.Encrypt(pt)
	prod := NewJob(in, in)
	prod.MulRelinRescale(0, 1)
	prodFut, err := s.Submit(prod)
	if err != nil {
		t.Fatal(err)
	}
	badCons := NewJob()
	badCons.Rotate(badCons.InputFrom(prodFut), brokenRotation) // broken key: fails in-kernel
	badFut, err := s.Submit(badCons)
	if err != nil {
		t.Fatal(err)
	}
	goodCons := NewJob()
	goodCons.Rotate(goodCons.InputFrom(prodFut), 1)
	goodFut, err := s.Submit(goodCons)
	if err != nil {
		t.Fatal(err)
	}

	s.Drain()
	if _, err := badFut.Wait(); err == nil {
		t.Fatal("broken consumer reported success")
	}
	got, err := goodFut.Wait()
	if err != nil {
		t.Fatalf("healthy consumer failed: %v", err)
	}
	prodHost, err := h.RunSerial(prod)
	if err != nil {
		t.Fatal(err)
	}
	want, err := h.RunSerialWith(goodCons, []*ckks.Ciphertext{prodHost})
	if err != nil {
		t.Fatal(err)
	}
	if err := SameCiphertext(got, want); err != nil {
		t.Fatalf("healthy consumer mismatch: %v", err)
	}
}

// TestRandomGraphsAlwaysValid pins the graph generator contract: every
// generated DAG submits cleanly end to end once its edges are wired.
func TestRandomGraphsAlwaysValid(t *testing.T) {
	h := sharedHarness(t)
	rng := rand.New(rand.NewSource(11))
	s := newScheduler(t, h, 2)
	for i := 0; i < 10; i++ {
		gc := h.RandomGraph(rng, 4, 5)
		if futs := submitGraph(t, s.Submit, gc); futs == nil {
			t.Fatalf("graph %d: generator produced an unsubmittable DAG", i)
		}
	}
	s.Drain()
}
