package sched

import (
	"math/rand"
	"sync"
	"testing"

	"xehe/internal/ckks"
	"xehe/internal/gpu"
)

// transferFamilies is fusionFamilies plus DAG shapes that re-reference
// an input value after intermediates were appended to the value list —
// the exact access pattern that breaks if the gathered upload's
// per-job input slices alias each other (an append would clobber the
// next job's inputs).
var transferFamilies = append([]func(j *Job){
	func(j *Job) { r := j.Rotate(0, 1); j.Add(r, 1) },
	func(j *Job) { r := j.Add(0, 1); _ = r; r2 := j.Add(0, 0); j.Add(r2, 1) },
}, fusionFamilies...)

// TestTransferDifferentialMatrix is the transfer differential sweep:
// families of same-shape jobs with distinct random inputs run coalesced
// and job-at-a-time (batchShapes) and must match the serial
// core.Context path bit-for-bit. It also pins the transfer counters:
// gathered submissions and bytes appear at every batch size.
func TestTransferDifferentialMatrix(t *testing.T) {
	h := sharedHarness(t)
	rng := rand.New(rand.NewSource(1717))
	const reps = 3
	for _, shape := range batchShapes {
		t.Run(shape.name, func(t *testing.T) {
			var jobs []*Job
			for _, fam := range transferFamilies {
				for r := 0; r < reps; r++ {
					jobs = append(jobs, familyJob(h, rng, fam))
				}
			}
			cfg := schedConfig(1)
			cfg.MaxBatch = shape.maxBatch
			s := newSchedulerWith(t, h, cfg)
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
					t.Fatalf("job %d: %s vs serial mismatch: %v (ops %v)", i, shape.name, err, jobs[i].Ops)
				}
			}
			st := s.Stats()
			if st.Jobs != int64(len(jobs)) || st.Failed != 0 {
				t.Fatalf("stats = %d jobs / %d failed, want %d/0", st.Jobs, st.Failed, len(jobs))
			}
			if st.TransferBatches == 0 || st.BytesH2D == 0 || st.BytesD2H == 0 {
				t.Fatalf("no gathered submissions observed: %d batches, %d/%d bytes",
					st.TransferBatches, st.BytesH2D, st.BytesD2H)
			}
		})
	}
}

// TestTransferDifferentialRandomQoS replays the randomized QoS
// differential over DAG-shaped chains: replicas of random chains under
// random classes and deadlines, submitted from racing goroutines, must
// stay bit-identical to the serial path. Run with -race.
func TestTransferDifferentialRandomQoS(t *testing.T) {
	h := sharedHarness(t)
	rng := rand.New(rand.NewSource(272727))
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
			t.Fatalf("job %d: overlapped vs serial mismatch: %v (ops %v)", i, err, su.c.Job.Ops)
		}
		if e := MaxSlotError(h.Decrypt(got), su.c.Expected); e > differentialEps {
			t.Fatalf("job %d: slot error %g", i, e)
		}
	}
}

// TestClusterTransferDifferential runs the full pipeline on a
// heterogeneous cluster (Device1 + Device2, work stealing active):
// results bit-identical to the serial path regardless of which shard
// moved which batch, and the cluster stats merge carries the transfer
// counters (global and per-class sums reconcile across shards).
func TestClusterTransferDifferential(t *testing.T) {
	h := sharedHarness(t)
	rng := rand.New(rand.NewSource(424242))
	const reps = 3
	var jobs []*Job
	for _, fam := range transferFamilies {
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
			t.Fatalf("job %d: cluster-transfer vs serial mismatch: %v (ops %v)", i, err, jobs[i].Ops)
		}
	}
	st := c.Stats()
	if st.Jobs != int64(len(jobs)) || st.Failed != 0 {
		t.Fatalf("stats = %d jobs / %d failed, want %d/0", st.Jobs, st.Failed, len(jobs))
	}
	if st.TransferBatches == 0 || st.BytesH2D == 0 || st.BytesD2H == 0 {
		t.Fatalf("cluster merge lost the transfer counters: %d batches, %d/%d bytes",
			st.TransferBatches, st.BytesH2D, st.BytesD2H)
	}
	var shardSum, classSum int64
	for _, ps := range st.PerShard {
		shardSum += ps.TransferBatches
	}
	for _, pc := range st.PerClass {
		classSum += pc.TransferBatches
	}
	if shardSum != st.TransferBatches || classSum != st.TransferBatches {
		t.Fatalf("transfer-batch sums disagree: shards %d, classes %d, global %d",
			shardSum, classSum, st.TransferBatches)
	}
}

// TestTransferBatchOfOne pins the degenerate gathered transfer:
// MaxBatch 1 forces every batch to a single job, so each gathered
// upload/download covers exactly one job's rows — and results must
// still match the serial path bit-for-bit.
func TestTransferBatchOfOne(t *testing.T) {
	h := sharedHarness(t)
	rng := rand.New(rand.NewSource(99))
	cfg := schedConfig(2)
	cfg.MaxBatch = 1
	s := newSchedulerWith(t, h, cfg)
	const nJobs = 8
	jobs := make([]*Job, nJobs)
	futs := make([]*Future, nJobs)
	for i := range jobs {
		jobs[i] = familyJob(h, rng, fusionFamilies[i%len(fusionFamilies)])
		var err error
		if futs[i], err = s.Submit(jobs[i]); err != nil {
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
			t.Fatalf("job %d: batch-of-one transfer mismatch: %v", i, err)
		}
	}
	st := s.Stats()
	if st.MaxBatch != 1 {
		t.Fatalf("MaxBatch = %d, want 1", st.MaxBatch)
	}
	if st.TransferBatches == 0 {
		t.Fatal("singleton batches must still ride the gathered transfer path")
	}
}

// TestTransferRaggedFinalBatch pins the ragged tail: a burst that does
// not divide by MaxBatch leaves a final partial batch whose gathered
// transfers cover fewer rows; every job must stay bit-exact.
func TestTransferRaggedFinalBatch(t *testing.T) {
	h := sharedHarness(t)
	rng := rand.New(rand.NewSource(31))
	cfg := schedConfig(1)
	cfg.MaxBatch = 4
	s := newSchedulerWith(t, h, cfg)
	const nJobs = 10         // 4 + 4 + 2 under a saturated single worker
	fam := fusionFamilies[2] // MulRelinRS + Rotate
	jobs := make([]*Job, nJobs)
	futs := make([]*Future, nJobs)
	for i := range jobs {
		jobs[i] = familyJob(h, rng, fam)
		var err error
		if futs[i], err = s.Submit(jobs[i]); err != nil {
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
			t.Fatalf("job %d: ragged-batch mismatch: %v", i, err)
		}
	}
	if st := s.Stats(); st.Jobs != nJobs || st.Failed != 0 {
		t.Fatalf("stats = %d jobs / %d failed, want %d/0", st.Jobs, st.Failed, nJobs)
	}
}

// TestTransferStagingReuse drives several waves of batches through one
// scheduler: after the first waves populate the backend's staging
// pool, later gathered transfers must reuse its buffers (and stay
// bit-exact over the recycled staging memory).
func TestTransferStagingReuse(t *testing.T) {
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
				t.Fatalf("wave %d job %d: recycled-staging mismatch: %v", w, i, err)
			}
		}
	}
	gets, reuses, _ := s.Backend().Staging().Stats()
	if gets == 0 || reuses == 0 {
		t.Fatalf("staging pool never recycled: %d gets, %d reuses", gets, reuses)
	}
}

// TestTransferFallbackIsolatesFailure composes the transfer pipeline
// with the fused-kernel failure fallback: a broken Galois key fails
// only its own jobs (with the descriptive per-op error), healthy work
// stays bit-correct, and Drain/Close never wedge — with gathered
// uploads in front and gathered downloads behind the fallback.
func TestTransferFallbackIsolatesFailure(t *testing.T) {
	h := sharedHarness(t)
	gks := map[int]*ckks.GaloisKey{}
	for k, v := range h.GaloisKeys() {
		gks[k] = v
	}
	gks[5] = &ckks.GaloisKey{} // present (passes Submit), panics at run time
	s := New(h.Params, gpu.NewDevice1(), schedConfig(1),
		h.RelinKey(), gks)
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
	s.Drain()
	for i, fut := range badFuts {
		if _, err := fut.Wait(); err == nil {
			t.Fatalf("broken job %d reported success", i)
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
	if st := s.Stats(); st.Failed != bad || st.Jobs != bad+good {
		t.Fatalf("stats = %d jobs / %d failed, want %d/%d", st.Jobs, st.Failed, bad+good, bad)
	}
	checkPoolsReturned(t, "after the failed batches drained", s.Backend())
}
