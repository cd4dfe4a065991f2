package sched

import (
	"math/rand"
	"sync"
	"testing"

	"xehe/internal/ckks"
	"xehe/internal/gpu"
)

// differentialEps bounds the decoded-slot error of a random chain
// against the exact plaintext model. Individual ops land around 1e-5
// at the test parameters (N=4096, 40-bit scale); chains of up to 6 ops
// with inputs in the unit box stay well under this.
const differentialEps = 1e-3

// TestDifferentialRandomJobs is the core differential harness: random
// job chains are run through the concurrent scheduler (submissions
// racing from several goroutines) and through the existing serial
// core.Context path. Every pair of results must agree bit-for-bit
// (the simulated kernels are deterministic), and decrypt to the
// plaintext model within CKKS noise. Run it with -race: it exercises
// the shared memory cache, the per-tile queues and the dispatcher
// under genuine concurrency.
func TestDifferentialRandomJobs(t *testing.T) {
	h := sharedHarness(t)
	const (
		nJobs      = 24
		maxOps     = 6
		submitters = 4
		workers    = 4
	)
	rng := rand.New(rand.NewSource(1234))
	cases := make([]*Case, nJobs)
	for i := range cases {
		cases[i] = h.RandomCase(rng, maxOps)
	}

	s := newScheduler(t, h, workers)

	futs := make([]*Future, nJobs)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < nJobs; i += submitters {
				fut, err := s.Submit(cases[i].Job)
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

	var maxErr float64
	for i, fut := range futs {
		if fut == nil {
			t.Fatalf("job %d was never submitted", i)
		}
		got, err := fut.Wait()
		if err != nil {
			t.Fatalf("job %d: %v (ops %v)", i, err, cases[i].Job.Ops)
		}
		want, err := h.RunSerial(cases[i].Job)
		if err != nil {
			t.Fatalf("job %d: serial reference: %v", i, err)
		}
		if err := SameCiphertext(got, want); err != nil {
			t.Fatalf("job %d: concurrent vs serial ciphertext mismatch: %v (ops %v)", i, err, cases[i].Job.Ops)
		}
		if e := MaxSlotError(h.Decrypt(got), cases[i].Expected); e > differentialEps {
			t.Fatalf("job %d: slot error %g > %g (ops %v)", i, e, differentialEps, cases[i].Job.Ops)
		} else if e > maxErr {
			maxErr = e
		}
	}
	st := s.Stats()
	t.Logf("differential: %d jobs, %d batches (max %d, %d coalesced), max slot error %.3g",
		st.Jobs, st.Batches, st.MaxBatch, st.Coalesced, maxErr)
}

// TestDifferentialDevice2 repeats a smaller differential run on the
// single-tile Device2: multiple workers then share one tile, which
// stresses a different queue/tile mapping. MaxBatch 1 ships every job
// alone, so three batches of one are in flight on the tile at once.
func TestDifferentialDevice2(t *testing.T) {
	h := sharedHarness(t)
	rng := rand.New(rand.NewSource(99))
	cfg := schedConfig(3)
	cfg.MaxBatch = 1
	s := New(h.Params, gpu.NewDevice2(), cfg, h.RelinKey(), h.GaloisKeys())
	defer s.Close()

	const nJobs = 8
	cases := make([]*Case, nJobs)
	futs := make([]*Future, nJobs)
	for i := range cases {
		cases[i] = h.RandomCase(rng, 4)
		var err error
		futs[i], err = s.Submit(cases[i].Job)
		if err != nil {
			t.Fatal(err)
		}
	}
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
			t.Fatalf("job %d: mismatch: %v", i, err)
		}
		if e := MaxSlotError(h.Decrypt(got), cases[i].Expected); e > differentialEps {
			t.Fatalf("job %d: slot error %g", i, e)
		}
	}
}

// runHost evaluates a job on the host ckks.Evaluator — coefficient-form
// automorphism, digits rebuilt under every modulus, no code shared with
// internal/core — op by op over the same value list the device chain
// builds.
func runHost(ev *ckks.Evaluator, job *Job) *ckks.Ciphertext {
	vals := append([]*ckks.Ciphertext(nil), job.Inputs...)
	for _, op := range job.Ops {
		var r *ckks.Ciphertext
		switch op.Code {
		case OpAdd:
			r = ev.Add(vals[op.A], vals[op.B])
		case OpMulRelin:
			r = ev.Relinearize(ev.Mul(vals[op.A], vals[op.B]))
		case OpMulRelinRescale:
			r = ev.Rescale(ev.Relinearize(ev.Mul(vals[op.A], vals[op.B])))
		case OpSquareRelinRescale:
			r = ev.Rescale(ev.Relinearize(ev.Square(vals[op.A])))
		case OpRotate:
			r = ev.Rotate(vals[op.A], op.K)
		case OpModSwitch:
			r = ev.ModSwitch(vals[op.A])
		}
		vals = append(vals, r)
	}
	return vals[len(vals)-1]
}

// TestSerialReferenceMatchesHostEvaluator anchors the reference every
// differential family compares against. RunSerial is a batch of one
// through the same internal/core routines the scheduler runs batched,
// so agreement between the two says nothing about those routines on
// its own; the host evaluator is the independent oracle. Every op
// family and a spread of random chains must come out of RunSerial
// bit-identical to it. (Anchor, not replacement: the host evaluator is
// about half again as slow per job, and RunSerial runs hundreds of
// times per package run.)
func TestSerialReferenceMatchesHostEvaluator(t *testing.T) {
	h := sharedHarness(t)
	var keys []*ckks.GaloisKey
	for _, gk := range h.GaloisKeys() {
		keys = append(keys, gk)
	}
	host := ckks.NewEvaluator(h.Params, h.RelinKey(), keys...)
	rng := rand.New(rand.NewSource(2026))
	var jobs []*Job
	for _, fam := range fusionFamilies {
		jobs = append(jobs, familyJob(h, rng, fam))
	}
	for i := 0; i < 24; i++ {
		jobs = append(jobs, h.RandomCase(rng, 6).Job)
	}
	for i, job := range jobs {
		got, err := h.RunSerial(job)
		if err != nil {
			t.Fatalf("job %d: serial reference: %v (ops %v)", i, err, job.Ops)
		}
		if err := SameCiphertext(got, runHost(host, job)); err != nil {
			t.Fatalf("job %d: serial reference differs from the host evaluator: %v (ops %v)", i, err, job.Ops)
		}
	}
}

// TestRandomCasesAlwaysValid pins the generator contract: every
// generated job passes validation (the scheduler never sees a
// structurally broken random job).
func TestRandomCasesAlwaysValid(t *testing.T) {
	h := sharedHarness(t)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		c := h.RandomCase(rng, 8)
		if err := c.Job.Validate(h.Params); err != nil {
			t.Fatalf("case %d: generator produced invalid job: %v (ops %v)", i, err, c.Job.Ops)
		}
	}
}
