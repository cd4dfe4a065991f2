package sched

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"xehe/internal/ckks"
	"xehe/internal/gpu"
)

// familyJob builds one member of a same-shape job family: a fixed op
// chain over fresh random inputs, so coalesced siblings carry distinct
// data and any cross-job row mix-up in the fused kernels shows up as a
// differential mismatch.
func familyJob(h *Harness, rng *rand.Rand, build func(j *Job)) *Job {
	slots := h.Params.Slots()
	in := func() *ckks.Ciphertext {
		pt := make([]complex128, slots)
		for i := range pt {
			pt[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
		return h.Encrypt(pt)
	}
	j := NewJob(in(), in())
	build(j)
	return j
}

// fusionFamilies covers every op code with a deterministic chain; all
// members of one family share a shape key and are eligible to fuse.
var fusionFamilies = []func(j *Job){
	func(j *Job) { j.Add(0, 1) },
	func(j *Job) { j.MulRelin(0, 1) },
	func(j *Job) { r := j.MulRelinRescale(0, 1); j.Rotate(r, 1) },
	func(j *Job) { j.SquareRelinRescale(0) },
	func(j *Job) { r := j.Rotate(0, 2); j.Add(r, r) },
	func(j *Job) { r := j.ModSwitch(0); j.SquareRelinRescale(r) },
	func(j *Job) { r := j.Rotate(0, -1); j.MulRelinRescale(r, r) },
}

// TestFusedDifferentialFamilies is the fused counterpart of the core
// differential harness: families of same-shape jobs with distinct
// random inputs run through the scheduler and must match the serial
// core.Context path bit-for-bit. One worker plus a burst of
// submissions guarantees backlog, so the dispatcher actually coalesces
// and the workers actually fuse (asserted via the launch counters).
func TestFusedDifferentialFamilies(t *testing.T) {
	h := sharedHarness(t)
	rng := rand.New(rand.NewSource(4242))
	const reps = 4
	var jobs []*Job
	for _, fam := range fusionFamilies {
		for r := 0; r < reps; r++ {
			jobs = append(jobs, familyJob(h, rng, fam))
		}
	}
	s := newScheduler(t, h, 1)

	futs := make([]*Future, len(jobs))
	for i, j := range jobs {
		var err error
		if futs[i], err = s.Submit(j); err != nil {
			t.Fatalf("job %d: submit: %v", i, err)
		}
	}
	for i, fut := range futs {
		got, err := fut.Wait()
		if err != nil {
			t.Fatalf("job %d: %v (ops %v)", i, err, jobs[i].Ops)
		}
		want, err := h.RunSerial(jobs[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := SameCiphertext(got, want); err != nil {
			t.Fatalf("job %d: fused vs serial mismatch: %v (ops %v)", i, err, jobs[i].Ops)
		}
	}
	st := s.Stats()
	if st.Jobs != int64(len(jobs)) || st.Failed != 0 {
		t.Fatalf("stats = %d jobs / %d failed, want %d/0", st.Jobs, st.Failed, len(jobs))
	}
	// A single worker against a full burst must have coalesced — and
	// coalesced batches must run fused.
	if st.Coalesced == 0 || st.FusedBatches == 0 || st.FusedSteps == 0 {
		t.Fatalf("no fusion observed: coalesced=%d fusedBatches=%d fusedSteps=%d",
			st.Coalesced, st.FusedBatches, st.FusedSteps)
	}
}

// TestFusedDifferentialRandomQoSMix replays the randomized QoS
// differential with fusion on: replicas of random chains under random
// classes and deadlines, submitted from racing goroutines, must stay
// bit-identical to the serial path. Replicated cases share a shape
// key, so fused and unfused batches interleave with singleton
// dispatches under every policy decision.
func TestFusedDifferentialRandomQoSMix(t *testing.T) {
	h := sharedHarness(t)
	rng := rand.New(rand.NewSource(987))
	const nCases, reps, submitters = 8, 3, 4
	type sub struct {
		c   *Case
		fut *Future
	}
	var subs []sub
	for i := 0; i < nCases; i++ {
		c := h.RandomCase(rng, 5)
		h.RandomQoS(rng, c.Job)
		for r := 0; r < reps; r++ {
			subs = append(subs, sub{c: c})
		}
	}
	s := newScheduler(t, h, 3)

	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(subs); i += submitters {
				fut, err := s.Submit(subs[i].c.Job)
				if err != nil {
					t.Errorf("job %d: submit: %v", i, err)
					return
				}
				subs[i].fut = fut
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("submission failed")
	}
	for i, su := range subs {
		got, err := su.fut.Wait()
		if err != nil {
			t.Fatalf("job %d: %v (ops %v)", i, err, su.c.Job.Ops)
		}
		want, err := h.RunSerial(su.c.Job)
		if err != nil {
			t.Fatal(err)
		}
		if err := SameCiphertext(got, want); err != nil {
			t.Fatalf("job %d: fused vs serial mismatch: %v (ops %v)", i, err, su.c.Job.Ops)
		}
		if e := MaxSlotError(h.Decrypt(got), su.c.Expected); e > differentialEps {
			t.Fatalf("job %d: slot error %g", i, e)
		}
	}
}

// TestClusterFusedDifferential runs coalesced families on a
// heterogeneous cluster (Device1 + Device2, work stealing active):
// results must be bit-identical to the serial path regardless of
// which shard fused which batch.
func TestClusterFusedDifferential(t *testing.T) {
	h := sharedHarness(t)
	rng := rand.New(rand.NewSource(31337))
	const reps = 3
	var jobs []*Job
	for _, fam := range fusionFamilies {
		for r := 0; r < reps; r++ {
			jobs = append(jobs, familyJob(h, rng, fam))
		}
	}
	c := newTestCluster(t, h, 2, gpu.Device1Spec(), gpu.Device2Spec())

	futs := make([]*Future, len(jobs))
	var wg sync.WaitGroup
	const submitters = 4
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(jobs); i += submitters {
				fut, err := c.Submit(jobs[i])
				if err != nil {
					t.Errorf("job %d: submit: %v", i, err)
					return
				}
				futs[i] = fut
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("submission failed")
	}
	for i, fut := range futs {
		got, err := fut.Wait()
		if err != nil {
			t.Fatalf("job %d: %v (ops %v)", i, err, jobs[i].Ops)
		}
		want, err := h.RunSerial(jobs[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := SameCiphertext(got, want); err != nil {
			t.Fatalf("job %d: cluster-fused vs serial mismatch: %v (ops %v)", i, err, jobs[i].Ops)
		}
	}
	if st := c.Stats(); st.Jobs != int64(len(jobs)) || st.Failed != 0 {
		t.Fatalf("stats = %d jobs / %d failed, want %d/0", st.Jobs, st.Failed, len(jobs))
	}
}

// lowerLevel derives a valid level-(L-1) ciphertext by dropping the
// last RNS component of every polynomial (host-side modulus switch:
// the remaining residues already represent the same value).
func lowerLevel(ct *ckks.Ciphertext) *ckks.Ciphertext {
	out := &ckks.Ciphertext{Scale: ct.Scale, Level: ct.Level - 1}
	for _, pv := range ct.Value {
		c := pv.Clone()
		c.DropLast()
		out.Value = append(out.Value, c)
	}
	return out
}

// TestMixedLevelJobsDoNotFuse pins the shape-key guard end to end:
// jobs with identical op chains but different input levels must never
// share a batch (their kernel shapes differ), and an interleaved
// mixed-level stream through a fused scheduler stays bit-identical to
// the serial path. Same-level neighbors still coalesce.
func TestMixedLevelJobsDoNotFuse(t *testing.T) {
	h := sharedHarness(t)
	rng := rand.New(rand.NewSource(808))
	slots := h.Params.Slots()
	mkInput := func() *ckks.Ciphertext {
		pt := make([]complex128, slots)
		for i := range pt {
			pt[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
		return h.Encrypt(pt)
	}
	const pairs = 8
	var jobs []*Job
	for i := 0; i < pairs; i++ {
		top := NewJob(mkInput())
		top.SquareRelinRescale(0)
		low := NewJob(lowerLevel(mkInput()))
		low.SquareRelinRescale(0)
		if top.ShapeKey() == low.ShapeKey() {
			t.Fatal("mixed-level jobs share a shape key; they would fuse")
		}
		jobs = append(jobs, top, low) // interleaved levels
	}
	s := newScheduler(t, h, 1)
	futs := make([]*Future, len(jobs))
	for i, j := range jobs {
		var err error
		if futs[i], err = s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	for i, fut := range futs {
		got, err := fut.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		want, err := h.RunSerial(jobs[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := SameCiphertext(got, want); err != nil {
			t.Fatalf("job %d: mixed-level stream mismatch: %v", i, err)
		}
	}
}

// TestFusedMemcacheRecycling drives several waves of fused batches
// through one scheduler whose workers share the device buffer cache:
// every wave's working set is built from buffers the previous wave
// recycled, so any aliasing between the gathered batch rows and live
// job state would corrupt results. Each wave must stay bit-identical
// to the serial path, and the cache must actually be recycling.
func TestFusedMemcacheRecycling(t *testing.T) {
	h := sharedHarness(t)
	rng := rand.New(rand.NewSource(616))
	s := newScheduler(t, h, 2)
	const waves, perWave = 4, 10
	for w := 0; w < waves; w++ {
		fam := fusionFamilies[w%len(fusionFamilies)]
		jobs := make([]*Job, perWave)
		futs := make([]*Future, perWave)
		for i := range jobs {
			jobs[i] = familyJob(h, rng, fam)
			var err error
			if futs[i], err = s.Submit(jobs[i]); err != nil {
				t.Fatal(err)
			}
		}
		s.Drain()
		for i, fut := range futs {
			got, err := fut.Wait()
			if err != nil {
				t.Fatalf("wave %d job %d: %v", w, i, err)
			}
			want, err := h.RunSerial(jobs[i])
			if err != nil {
				t.Fatal(err)
			}
			if err := SameCiphertext(got, want); err != nil {
				t.Fatalf("wave %d job %d: recycled-buffer mismatch: %v", w, i, err)
			}
		}
	}
	if hits, _ := s.Backend().Cache().Stats(); hits == 0 {
		t.Fatal("buffer cache never hit; recycling path untested")
	}
}

// TestPerClassCoalescingStats pins the per-class coalescing breakdown:
// batches and coalesced jobs are attributed to the class whose queue
// formed them, sums reconcile with the global counters, and a class
// that never coalesces reports zero.
func TestPerClassCoalescingStats(t *testing.T) {
	h := sharedHarness(t)
	vals := make([]complex128, h.Params.Slots())
	s := newScheduler(t, h, 1)
	release := holdFirstBatch(s)
	const bulk = 18
	for i := 0; i < bulk; i++ {
		j := NewJob(h.Encrypt(vals))
		j.SquareRelinRescale(0) // Batch class (default)
		if _, err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	release()
	s.Drain()
	st := s.Stats()
	if st.Jobs != bulk {
		t.Fatalf("jobs = %d, want %d", st.Jobs, bulk)
	}
	var batches, coalesced int64
	maxPerClass := 0
	for _, pc := range st.PerClass {
		batches += pc.Batches
		coalesced += pc.Coalesced
		if pc.MaxBatch > maxPerClass {
			maxPerClass = pc.MaxBatch
		}
		if pc.Name != "batch" && (pc.Batches != 0 || pc.Coalesced != 0 || pc.MaxBatch != 0) {
			t.Fatalf("idle class %q reports batches=%d coalesced=%d maxBatch=%d",
				pc.Name, pc.Batches, pc.Coalesced, pc.MaxBatch)
		}
	}
	if batches != st.Batches || coalesced != st.Coalesced || maxPerClass != st.MaxBatch {
		t.Fatalf("per-class sums (batches %d, coalesced %d, max %d) disagree with globals (%d, %d, %d)",
			batches, coalesced, maxPerClass, st.Batches, st.Coalesced, st.MaxBatch)
	}
	if st.Coalesced == 0 || st.MaxBatch < 2 {
		t.Fatalf("no coalescing of %d jobs behind a held worker: %d coalesced, max batch %d", bulk, st.Coalesced, st.MaxBatch)
	}
}

// TestFusedFallbackIsolatesFailure forces a runtime failure inside a
// coalesced batch (a structurally valid rotation whose Galois key is
// broken): a step over k jobs cannot attribute the panic to one, so
// the worker must re-run the batch job by job, fail every broken job
// with a descriptive error, and complete healthy batches — without
// wedging Drain/Close or stranding a buffer the failed steps had
// allocated. The re-run steps are accounted as unfused.
func TestFusedFallbackIsolatesFailure(t *testing.T) {
	h := sharedHarness(t)
	gks := map[int]*ckks.GaloisKey{}
	for k, v := range h.GaloisKeys() {
		gks[k] = v
	}
	gks[5] = &ckks.GaloisKey{} // present (passes Submit), panics at run time
	s := New(h.Params, gpu.NewDevice1(), schedConfig(1), h.RelinKey(), gks)
	defer s.Close()

	vals := make([]complex128, h.Params.Slots())
	const bad, good = 4, 6
	var badFuts, goodFuts []*Future
	for i := 0; i < bad; i++ {
		j := NewJob(h.Encrypt(vals))
		j.Rotate(0, 5)
		fut, err := s.Submit(j)
		if err != nil {
			t.Fatal(err)
		}
		badFuts = append(badFuts, fut)
	}
	var goodJobs []*Job
	for i := 0; i < good; i++ {
		j := NewJob(h.Encrypt(vals))
		j.SquareRelinRescale(0)
		fut, err := s.Submit(j)
		if err != nil {
			t.Fatal(err)
		}
		goodJobs = append(goodJobs, j)
		goodFuts = append(goodFuts, fut)
	}

	s.Drain() // must not wedge on the failed batch
	for i, fut := range badFuts {
		_, err := fut.Wait()
		if err == nil {
			t.Fatalf("broken job %d reported success", i)
		}
		for _, want := range []string{"op 0", "Rotate", "panicked"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q not descriptive: missing %q", err, want)
			}
		}
	}
	for i, fut := range goodFuts {
		got, err := fut.Wait()
		if err != nil {
			t.Fatalf("healthy job %d failed: %v", i, err)
		}
		want, err := h.RunSerial(goodJobs[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := SameCiphertext(got, want); err != nil {
			t.Fatalf("healthy job %d: mismatch after fallback: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Failed != bad || st.Jobs != bad+good {
		t.Fatalf("stats = %d jobs / %d failed, want %d/%d", st.Jobs, st.Failed, bad+good, bad)
	}
	if st.Coalesced > 0 && st.UnfusedSteps == 0 {
		t.Fatal("coalesced broken batches must account fallback steps as unfused")
	}
	checkPoolsReturned(t, "after the failed batches drained", s.Backend())
}
