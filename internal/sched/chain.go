package sched

// The chain executor. A batch holds k jobs with identical shape keys —
// same input levels and op chains, hence identical kernel launch
// sequences — so the worker walks the shared chain once and drives
// every step as one launch sequence over all k jobs' polynomials
// (internal/core's *Batch routines over ntt.BatchView gathers), paying
// kernel launch, host submission and multi-queue overhead once per
// step per batch. A job that ships alone is the batch with k = 1, and
// the serial reference of the differential harness runs it the same
// way. The per-element arithmetic does not depend on k, so a job's
// result is bit-for-bit the same in any batch.

import (
	"fmt"

	"xehe/internal/ckks"
	"xehe/internal/core"
)

// evalChain submits the batch's whole op chain over already
// device-resident inputs, without host synchronization. ins[j] starts
// job j's value list and every value stays allocated until the caller
// frees it: later ops of a DAG-shaped job may reference any earlier
// value (the last entry is the result). It takes ownership of ins: on
// error every value — inputs, intermediates and whatever the failed
// step had allocated — has been recycled, and the error names the op.
func evalChain(c *core.Context, rlk *ckks.RelinKey, gks map[int]*ckks.GaloisKey, jobs []*Job, ins [][]*core.Ciphertext, tr *stepTrace) (vals [][]*core.Ciphertext, err error) {
	stage := 0
	vals = ins
	defer func() {
		if r := recover(); r != nil {
			for _, vs := range vals {
				for _, v := range vs {
					if v != nil {
						c.Free(v)
					}
				}
			}
			vals = nil
			err = wrapPanic(fmt.Sprintf("job op %d (%v)", stage, jobs[0].Ops[stage].Code), r)
		}
	}()
	k := len(jobs)
	gather := func(idx int) []*core.Ciphertext {
		cts := make([]*core.Ciphertext, k)
		for j := range cts {
			if cts[j] = vals[j][idx]; cts[j] == nil {
				panic(fmt.Sprintf("value %d lost its contents during migration", idx))
			}
		}
		return cts
	}
	// Same shape key == same op chain; job 0's chain drives the batch.
	for i, op := range jobs[0].Ops {
		stage = i
		sst := tr.begin()
		var rs []*core.Ciphertext
		c.Scoped(func() {
			switch op.Code {
			case OpAdd:
				rs = c.AddBatch(gather(op.A), gather(op.B))
			case OpMulRelin:
				rs = c.MulLinBatch(gather(op.A), gather(op.B), rlk)
			case OpMulRelinRescale:
				rs = c.MulLinRSBatch(gather(op.A), gather(op.B), rlk)
			case OpSquareRelinRescale:
				rs = c.SqrLinRSBatch(gather(op.A), rlk)
			case OpRotate:
				gk, ok := gks[op.K]
				if !ok {
					panic(fmt.Sprintf("no Galois key for rotation %d", op.K))
				}
				rs = c.RotateBatch(gather(op.A), op.K, gk)
			case OpModSwitch:
				rs = c.ModSwitchBatch(gather(op.A))
			}
		})
		tr.end(sst, op.Code.String(), k)
		for j := range vals {
			vals[j] = append(vals[j], rs[j])
		}
	}
	return vals, nil
}
