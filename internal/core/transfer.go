package core

// Fused batch transfers: gathered host<->device copies for coalesced
// job batches. The serial Upload/Download pay one memcpy submission
// per ciphertext component; a coalesced batch of k jobs used to pay
// k × components of them, all serialized on the compute queue. The
// methods here move a whole batch in ONE submission sized at its
// bytes — each row copies straight between its host slice and its
// job's device buffer (sycl.CopyInGather/CopyOutScatter) — on the
// context's copy queue, so on a copy-engine device the transfer
// overlaps with compute. Data movement is bit-identical to the per-job
// path; only submission counts and simulated timing change.

import (
	"xehe/internal/ckks"
	"xehe/internal/gpu"
	"xehe/internal/sycl"
)

// UploadBatch copies k host ciphertexts into device buffers with one
// gathered H2D submission sized at the whole batch (jobs × components
// × N words), instead of one submission per component per job. It
// returns the device ciphertexts, the bytes moved and the copy event
// (also installed as the pipeline tail) that downstream kernels must
// depend on. A batch of one moves exactly what Upload moves. If the
// copy is lost on the wire (the submission panics) the buffers it was
// headed for are returned first.
func (c *Context) UploadBatch(cts []*ckks.Ciphertext) ([]*Ciphertext, int64, gpu.Event) {
	outs := make([]*Ciphertext, len(cts))
	var dsts []*sycl.Buffer
	var srcs [][]uint64
	var words int
	sent := false
	defer func() {
		if !sent {
			c.freePolys(dsts)
		}
	}()
	for i, ct := range cts {
		outs[i] = newCt(len(ct.Value), ct.Level, ct.Scale)
		for j, pv := range ct.Value {
			c.fill(outs[i], j, pv.Components(), pv.IsNTT)
			dsts = append(dsts, outs[i].bufs[j])
			srcs = append(srcs, pv.Data())
			words += len(pv.Data())
		}
	}
	var ev gpu.Event
	if c.Cfg.Analytic {
		ev = c.copyQ.Raw().CopyH2D(int64(words) * 8)
	} else {
		ev = c.copyQ.CopyInGather(dsts, srcs)
	}
	sent = true
	c.after([]gpu.Event{ev})
	return outs, int64(words) * 8, ev
}

// DownloadBatchAsync submits one gathered D2H transfer for every
// non-nil ciphertext of a batch (rows scattered from the jobs' device
// buffers into fresh host polynomials),
// depending on the current pipeline tail, and returns the host
// ciphertexts, the bytes moved and the copy event — which the caller
// waits on, once, when the results are needed. nil entries (failed
// jobs) produce nil outputs and move no bytes.
func (c *Context) DownloadBatchAsync(cts []*Ciphertext) ([]*ckks.Ciphertext, int64, gpu.Event) {
	outs := make([]*ckks.Ciphertext, len(cts))
	var srcs []*sycl.Buffer
	var dsts [][]uint64
	var words int
	for i, ct := range cts {
		if ct == nil {
			continue
		}
		out := &ckks.Ciphertext{Scale: ct.CT.Scale, Level: ct.CT.Level}
		for j, pv := range ct.CT.Value {
			host := c.hostResult(pv)
			out.Value = append(out.Value, host)
			srcs = append(srcs, ct.bufs[j])
			dsts = append(dsts, host.Data())
			words += len(host.Data())
		}
		outs[i] = out
	}
	var ev gpu.Event
	if c.Cfg.Analytic {
		ev = c.copyQ.Raw().CopyD2H(int64(words)*8, c.deps...)
	} else {
		ev = c.copyQ.CopyOutScatter(dsts, srcs, c.deps...)
	}
	c.after([]gpu.Event{ev})
	return outs, int64(words) * 8, ev
}
