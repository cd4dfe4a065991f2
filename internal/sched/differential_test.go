package sched

import (
	"math/rand"
	"testing"

	"xehe/internal/ckks"
)

// differentialEps bounds the decoded-slot error of a random chain
// against the exact plaintext model. Individual ops land around 1e-5
// at the test parameters (N=4096, 40-bit scale); chains of up to 6 ops
// with inputs in the unit box stay well under this.
const differentialEps = 1e-3

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
		jobs = append(jobs, familyCase(h, rng, fam).Job)
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
