package sched

import (
	"testing"

	"xehe/internal/ckks"
	"xehe/internal/qos"
)

// FuzzValidateJob fuzzes the boundary that accepts outside structure:
// a job's inputs, op codes, operand indices, rotation amounts, class
// and deadline are decoded from the fuzz bytes over a fixed pool of
// ciphertexts at every level and several degrees (sound ones, a
// degree-2 product, tampered levels, nil, empty). Scheduler.validate
// must never panic, and what it accepts must run: the job goes through
// the serial reference without an error — a panic inside a routine
// surfaces as one, a panic inside a kernel body kills the process —
// comes out at the level and scale validation traced, and returns every
// buffer it took.
func FuzzValidateJob(f *testing.F) {
	h := sharedHarness(f)
	s := newScheduler(f, h, 1)
	host := ckks.NewEvaluator(h.Params, h.RelinKey())
	fresh := h.Encrypt(make([]complex128, h.Params.Slots()))
	pool := []*ckks.Ciphertext{fresh}
	for ct := fresh; ct.Level > 0; {
		ct = host.ModSwitch(ct)
		pool = append(pool, ct)
	}
	above, below := fresh.Clone(), fresh.Clone()
	above.Level = h.Params.MaxLevel() + 1 // more levels than components
	below.Level = 1                       // more components than levels: accepted, must run
	pool = append(pool, host.Mul(fresh, fresh), above, below, nil, &ckks.Ciphertext{})

	// Pool indices: 0..MaxLevel are the sound inputs by falling level.
	top, bottom := byte(0), byte(h.Params.MaxLevel())
	deg2, aboveIdx, belowIdx, nilIdx := bottom+1, bottom+2, bottom+3, bottom+4
	f.Add([]byte{1, top, top, 2, 0, 2, 0, 1, 0, 4, 2, 0, 1})       // the standard stream job
	f.Add([]byte{0, top, 2, 0, 3, 0, 0, 0})                        // square at the top level
	f.Add([]byte{0, bottom, 2, 0, 3, 0, 0, 0})                     // rescale at level 0
	f.Add([]byte{0, deg2, 2, 0, 4, 0, 0, 1})                       // degree-2 input
	f.Add([]byte{0, aboveIdx, 2, 0, 4, 0, 0, 1})                   // level beyond the components
	f.Add([]byte{1, top, top + 1, 2, 0, 0, 0, 1, 0})               // Add across levels
	f.Add([]byte{0, belowIdx, 2, 9, 5, 0, 0, 0, 4, 1, 0, 1})       // components beyond the level: mod-switch, rotate
	f.Add([]byte{2, top, nilIdx, top, 4, 200, 6, 250, 9, 3, 1, 1}) // nil input, class and operands out of range, unknown op

	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		job := &Job{}
		for n := 1 + int(next())%3; n > 0; n-- {
			job.Inputs = append(job.Inputs, pool[int(next())%len(pool)])
		}
		job.Class = qos.ClassID(int(next())%5 - 1)
		job.Deadline = float64(int8(next())) * 1e-4
		for len(data) > 0 && len(job.Ops) < 6 {
			job.Ops = append(job.Ops, Op{
				Code: OpCode(next() % 7),
				A:    int(int8(next())) % 8,
				B:    int(int8(next())) % 8,
				K:    int(int8(next())) % 4,
			})
		}

		metas, err := s.validate(job)
		if err != nil {
			return
		}
		out, err := h.RunSerial(job)
		if err != nil {
			t.Fatalf("validate accepted %+v, the serial reference failed it: %v", job.Ops, err)
		}
		if want := metas[len(metas)-1]; out.Level != want.level || out.Scale != want.scale {
			t.Fatalf("%+v came out at level %d scale %g, validation traced level %d scale %g", job.Ops, out.Level, out.Scale, want.level, want.scale)
		}
		if used := h.serial.Cache.UsedCount(); used != 0 {
			t.Fatalf("%+v left %d buffers checked out of the serial context's cache", job.Ops, used)
		}
	})
}
