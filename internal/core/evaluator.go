package core

// The HE evaluator, written once. Every routine takes a batch of k
// same-shape ciphertexts and drives it the way the paper's backend
// drives any batch: the job count is an NDRange dimension, so each
// step is one ntt.BatchView launch sequence over jobs × RNS rows or
// one elementwise kernel over jobs × components × N items, and the
// batch pays kernel launch, host submission and multi-queue overhead
// once per step instead of once per job. A lone ciphertext is the same
// range with that dimension equal to 1 (routines.go holds the k = 1
// adaptors the serial API calls); the concurrent scheduler
// (internal/sched) passes the coalesced jobs of a batch.
//
// All jobs of a batch must share level, degree and scale layout at
// every step; the scheduler's ShapeKey coalescing guarantees this, and
// mixed-level inputs never share a batch in the first place. The
// per-element arithmetic does not depend on k, so a job's result is
// bit-for-bit the same alone or in any batch — the property the
// differential harness pins against the host ckks.Evaluator.

import (
	"slices"

	"xehe/internal/ckks"
	"xehe/internal/gpu"
	"xehe/internal/isa"
	"xehe/internal/ntt"
	"xehe/internal/poly"
	"xehe/internal/sycl"
	"xehe/internal/xmath"
)

// launch submits a kernel to the context's queue(s), chaining the
// asynchronous pipeline dependencies.
func (c *Context) launch(k *sycl.Kernel) {
	if len(c.Queues) > 1 {
		c.after(sycl.SubmitSplit(c.Queues, func(h *sycl.Handler) {
			h.DependsOn(c.deps...)
			h.ParallelFor(k)
		}))
		return
	}
	ev := c.Queues[0].Submit(func(h *sycl.Handler) {
		h.DependsOn(c.deps...)
		h.ParallelFor(k)
	})
	c.after([]gpu.Event{ev})
}

func profileOf(ops ...isa.Op) isa.Profile {
	var p isa.Profile
	for _, op := range ops {
		p.Add(op, 1)
	}
	p.Add(isa.OpIndex, 2)
	return p
}

// without returns a copy of s with element i removed.
func without[T any](s []T, i int) []T {
	return slices.Delete(slices.Clone(s), i, i+1)
}

// digitRow is the row of key-switch digit i's buffer holding its
// extension to index j != i of the basis {q_0..q_level, p}: the buffer
// is laid out over without(basis, i), because under its own modulus
// the digit is row i of the NTT-form target and is never rebuilt.
func digitRow(i, j int) int {
	if j > i {
		return j - 1
	}
	return j
}

// ewKernelJobs builds one elementwise kernel over jobs × comps × N
// items. The body processes one (job, component) row range at a time;
// the analytic profile carries the summed item count, so compute and
// memory cost scale with the batch while launch overhead is paid once.
func (c *Context) ewKernelJobs(name string, jobs, comps int, per isa.Profile, extra, bytesPerItem float64, pattern gpu.MemPattern, body func(job, comp, lo, hi int)) *sycl.Kernel {
	n := c.Params.N
	k := &sycl.Kernel{
		Name:  name,
		Range: gpu.NDRange{Global: [3]int{jobs, comps, n}},
		Profile: gpu.KernelProfile{
			Items:             jobs * comps * n,
			PerItem:           per,
			ExtraSlotsPerItem: extra,
			GlobalBytes:       bytesPerItem * float64(jobs*comps*n),
			Pattern:           pattern,
		},
	}
	if !c.Cfg.Analytic {
		k.Body = func(g *gpu.GroupCtx) { body(g.P, g.Q, g.Base, g.Base+g.Size) }
	}
	return k
}

// polyView gathers the first qCount components of every polynomial
// into one NTT batch view (rows stay in the jobs' own device buffers).
func (c *Context) polyView(ps []*poly.Poly, qCount int) *ntt.BatchView {
	view := ntt.NewBatchView(len(ps), qCount, c.Params.N)
	if !c.Cfg.Analytic {
		for j, p := range ps {
			view.SetPoly(j, p.Coeffs)
		}
	}
	return view
}

// rowView gathers one coefficient row per job into a k × 1 view.
func (c *Context) rowView(k int, row func(j int) []uint64) *ntt.BatchView {
	view := ntt.NewBatchView(k, 1, c.Params.N)
	if !c.Cfg.Analytic {
		for j := 0; j < k; j++ {
			view.SetRow(j, 0, row(j))
		}
	}
	return view
}

// fwdNTTJobs / invNTTJobs run the configured GPU NTT variant over all
// components of every job's polynomial as one fused launch sequence.
func (c *Context) fwdNTTJobs(ps []*poly.Poly, tbls []*ntt.Tables) {
	c.after(c.Engine.ForwardView(c.Queues, c.polyView(ps, len(tbls)), tbls, c.deps...))
	for _, p := range ps {
		p.IsNTT = true
	}
}

func (c *Context) invNTTJobs(ps []*poly.Poly, tbls []*ntt.Tables) {
	c.after(c.Engine.InverseView(c.Queues, c.polyView(ps, len(tbls)), tbls, c.deps...))
	for _, p := range ps {
		p.IsNTT = false
	}
}

// allocPolys obtains one device-backed polynomial per job.
func (c *Context) allocPolys(k, components int) ([]*poly.Poly, []*sycl.Buffer) {
	ps := make([]*poly.Poly, k)
	bufs := make([]*sycl.Buffer, k)
	for j := 0; j < k; j++ {
		ps[j], bufs[j] = c.allocPoly(components)
	}
	return ps, bufs
}

func (c *Context) freePolys(bufs []*sycl.Buffer) {
	for _, b := range bufs {
		c.freePoly(b)
	}
}

// component gathers component i of every ciphertext.
func component(cts []*Ciphertext, i int) []*poly.Poly {
	ps := make([]*poly.Poly, len(cts))
	for j, ct := range cts {
		ps[j] = ct.CT.Value[i]
	}
	return ps
}

// addIntoJobs launches dsts[j] = as[j] + bs[j] as one fused kernel.
func (c *Context) addIntoJobs(dsts, as, bs []*poly.Poly, comps int) {
	moduli := c.Params.Moduli()
	c.launch(c.ewKernelJobs("he_add", len(dsts), comps, profileOf(isa.OpAddMod), 0, 24, gpu.PatternUnitStride,
		func(jb, q, lo, hi int) {
			p := moduli[q].Value
			da, db, dd := as[jb].Coeffs[q], bs[jb].Coeffs[q], dsts[jb].Coeffs[q]
			for x := lo; x < hi; x++ {
				dd[x] = xmath.AddMod(da[x], db[x], p)
			}
		}))
	for j := range dsts {
		dsts[j].IsNTT = as[j].IsNTT
	}
}

// mulIntoJobs launches the dyadic products dsts[j] = as[j] ⊙ bs[j].
func (c *Context) mulIntoJobs(dsts, as, bs []*poly.Poly, comps int) {
	moduli := c.Params.Moduli()
	c.launch(c.ewKernelJobs("he_dyadic_mul", len(dsts), comps, profileOf(isa.OpMulMod), 0, 24, gpu.PatternUnitStride,
		func(jb, q, lo, hi int) {
			m := moduli[q]
			da, db, dd := as[jb].Coeffs[q], bs[jb].Coeffs[q], dsts[jb].Coeffs[q]
			for x := lo; x < hi; x++ {
				dd[x] = m.MulMod(da[x], db[x])
			}
		}))
	for j := range dsts {
		dsts[j].IsNTT = as[j].IsNTT
	}
}

// madIntoJobs launches dsts[j] += as[j] ⊙ bs[j], fused (one reduction)
// when the mad_mod optimization is enabled, or as separate mul_mod +
// add_mod passes in the baseline (Section III-A.1).
func (c *Context) madIntoJobs(dsts, as, bs []*poly.Poly, comps int) {
	moduli := c.Params.Moduli()
	if c.Cfg.MadMod {
		c.launch(c.ewKernelJobs("he_mad_mod", len(dsts), comps, profileOf(isa.OpMAdMod), 0, 32, gpu.PatternUnitStride,
			func(jb, q, lo, hi int) {
				m := moduli[q]
				da, db, dd := as[jb].Coeffs[q], bs[jb].Coeffs[q], dsts[jb].Coeffs[q]
				for x := lo; x < hi; x++ {
					dd[x] = m.MAdMod(da[x], db[x], dd[x])
				}
			}))
		return
	}
	c.launch(c.ewKernelJobs("he_mul_then_add", len(dsts), comps, profileOf(isa.OpMulMod, isa.OpAddMod), 0, 40, gpu.PatternUnitStride,
		func(jb, q, lo, hi int) {
			m := moduli[q]
			da, db, dd := as[jb].Coeffs[q], bs[jb].Coeffs[q], dsts[jb].Coeffs[q]
			for x := lo; x < hi; x++ {
				dd[x] = xmath.AddMod(m.MulMod(da[x], db[x]), dd[x], m.Value)
			}
		}))
}

// AddBatch returns as[j] + bs[j] for a same-shape batch, one fused
// kernel per ciphertext component.
func (c *Context) AddBatch(as, bs []*Ciphertext) []*Ciphertext {
	k := len(as)
	level := as[0].CT.Level
	outs := make([]*Ciphertext, k)
	for j := range outs {
		outs[j] = wrap(&ckks.Ciphertext{Scale: as[j].CT.Scale, Level: level}, nil)
	}
	for i := range as[0].CT.Value {
		dsts := make([]*poly.Poly, k)
		for j := 0; j < k; j++ {
			d, buf := c.allocPoly(level + 1)
			dsts[j] = d
			outs[j].CT.Value = append(outs[j].CT.Value, d)
			outs[j].bufs = append(outs[j].bufs, buf)
		}
		c.addIntoJobs(dsts, component(as, i), component(bs, i), level+1)
	}
	return outs
}

// MulBatch returns the degree-2 tensor products of a same-shape batch.
func (c *Context) MulBatch(as, bs []*Ciphertext) []*Ciphertext {
	k := len(as)
	level := as[0].CT.Level
	comps := level + 1
	d0s, b0s := c.allocPolys(k, comps)
	d1s, b1s := c.allocPolys(k, comps)
	d2s, b2s := c.allocPolys(k, comps)
	c.mulIntoJobs(d0s, component(as, 0), component(bs, 0), comps)
	c.mulIntoJobs(d1s, component(as, 0), component(bs, 1), comps)
	c.madIntoJobs(d1s, component(as, 1), component(bs, 0), comps)
	c.mulIntoJobs(d2s, component(as, 1), component(bs, 1), comps)
	outs := make([]*Ciphertext, k)
	for j := 0; j < k; j++ {
		for _, d := range []*poly.Poly{d0s[j], d1s[j], d2s[j]} {
			d.IsNTT = true
		}
		outs[j] = wrap(&ckks.Ciphertext{
			Value: []*poly.Poly{d0s[j], d1s[j], d2s[j]},
			Scale: as[j].CT.Scale * bs[j].CT.Scale,
			Level: level,
		}, []*sycl.Buffer{b0s[j], b1s[j], b2s[j]})
	}
	return outs
}

// SquareBatch computes the degree-2 squares of a same-shape batch (one
// dyadic product saved per job).
func (c *Context) SquareBatch(as []*Ciphertext) []*Ciphertext {
	k := len(as)
	level := as[0].CT.Level
	comps := level + 1
	d0s, b0s := c.allocPolys(k, comps)
	d1s, b1s := c.allocPolys(k, comps)
	d2s, b2s := c.allocPolys(k, comps)
	c.mulIntoJobs(d0s, component(as, 0), component(as, 0), comps)
	c.mulIntoJobs(d1s, component(as, 0), component(as, 1), comps)
	c.addIntoJobs(d1s, d1s, d1s, comps)
	c.mulIntoJobs(d2s, component(as, 1), component(as, 1), comps)
	outs := make([]*Ciphertext, k)
	for j := 0; j < k; j++ {
		for _, d := range []*poly.Poly{d0s[j], d1s[j], d2s[j]} {
			d.IsNTT = true
		}
		outs[j] = wrap(&ckks.Ciphertext{
			Value: []*poly.Poly{d0s[j], d1s[j], d2s[j]},
			Scale: as[j].CT.Scale * as[j].CT.Scale,
			Level: level,
		}, []*sycl.Buffer{b0s[j], b1s[j], b2s[j]})
	}
	return outs
}

// switchKeyJobs is the device key-switching procedure (see the host
// reference in internal/ckks for the algorithm), the NTT-dominated
// kernel behind Relinearize and Rotate (Fig. 5). Every digit pays one
// extend kernel, one batched NTT sequence and one multiply-accumulate
// kernel for the whole batch, matching how a real backend would submit
// a coalesced batch.
func (c *Context) switchKeyJobs(targets []*poly.Poly, swk *ckks.SwitchKey, level int) (outs0, outs1 []*poly.Poly, bufs0, bufs1 []*sycl.Buffer) {
	k := len(targets)
	params := c.Params
	n := params.N
	basis := params.Basis
	moduli := params.ModuliAt(level)
	L := params.MaxLevel()
	sp := basis.Special
	spTbl := params.SpecialTable

	// Step 1: targets back to coefficient form (one fused iNTT).
	tCoeffs, tBufs := c.allocPolys(k, level+1)
	for j := 0; j < k; j++ {
		if !c.Cfg.Analytic {
			copy(tCoeffs[j].Data(), targets[j].Data()[:n*(level+1)])
		}
		tCoeffs[j].IsNTT = true
	}
	c.invNTTJobs(tCoeffs, params.TablesAt(level))

	acc0s, a0bufs := c.allocPolys(k, level+2) // chain + special component
	acc1s, a1bufs := c.allocPolys(k, level+2)
	for j := 0; j < k; j++ {
		if !c.Cfg.Analytic {
			clear(acc0s[j].Data())
			clear(acc1s[j].Data())
		}
		acc0s[j].IsNTT, acc1s[j].IsNTT = true, true
	}

	// One extended digit buffer per job over the basis {q_0..q_l, p}
	// minus the digit's own modulus (see digitRow); kernels are batched
	// across moduli AND jobs (one extend kernel, one batched NTT, one
	// multiply-accumulate kernel per digit for the whole batch).
	digits, dBufs := c.allocPolys(k, level+1)
	extTbls := append(append([]*ntt.Tables{}, params.TablesAt(level)...), spTbl)
	extModuli := append(append([]xmath.Modulus{}, moduli...), sp)

	for i := 0; i <= level; i++ {
		dModuli := without(extModuli, i)
		// Reduce digit i into every other modulus (Barrett kernel).
		c.launch(c.ewKernelJobs("ks_digit_extend", k, level+1,
			profileOf(isa.OpMul64Hi, isa.OpAdd64), 0, 16, gpu.PatternUnitStride,
			func(jb, r, lo, hi int) {
				di := tCoeffs[jb].Coeffs[i]
				mr, d := dModuli[r], digits[jb].Coeffs[r]
				for x := lo; x < hi; x++ {
					d[x] = mr.BarrettReduce(di[x])
				}
			}))
		// Batched NTT across those moduli and all jobs (GPU engine).
		for _, d := range digits {
			d.IsNTT = false
		}
		c.fwdNTTJobs(digits, without(extTbls, i))
		// Multiply-accumulate with the key digit, all moduli and jobs
		// in one kernel. The special prime sits at L+1 in the switching
		// key regardless of the ciphertext level.
		bKey, aKey := swk.B[i], swk.A[i]
		madProfile := profileOf(isa.OpMAdMod, isa.OpMAdMod)
		if !c.Cfg.MadMod {
			madProfile = profileOf(isa.OpMulMod, isa.OpAddMod, isa.OpMulMod, isa.OpAddMod)
		}
		c.launch(c.ewKernelJobs("ks_mad", k, level+2, madProfile, 0, 56, gpu.PatternUnitStride,
			func(jb, j, lo, hi int) {
				keyIdx := j
				if j == level+1 {
					keyIdx = L + 1
				}
				mj := extModuli[j]
				d := targets[jb].Coeffs[i]
				if j != i {
					d = digits[jb].Coeffs[digitRow(i, j)]
				}
				b := bKey.Coeffs[keyIdx]
				a := aKey.Coeffs[keyIdx]
				o0, o1 := acc0s[jb].Coeffs[j], acc1s[jb].Coeffs[j]
				mj.MAdModVec(o0[lo:hi], d[lo:hi], b[lo:hi])
				mj.MAdModVec(o1[lo:hi], d[lo:hi], a[lo:hi])
			}))
	}
	c.freePolys(dBufs)
	c.freePolys(tBufs)

	// Step 3: mod-down by P (batched across moduli and jobs).
	outs0, bufs0 = c.allocPolys(k, level+1)
	outs1, bufs1 = c.allocPolys(k, level+1)
	for j := 0; j < k; j++ {
		outs0[j].IsNTT, outs1[j].IsNTT = true, true
	}
	tmps, tmpBufs := c.allocPolys(k, level+1)
	for _, pair := range [2]struct {
		accs []*poly.Poly
		outs []*poly.Poly
	}{{acc0s, outs0}, {acc1s, outs1}} {
		accs, pouts := pair.accs, pair.outs
		// Special components to coefficient form (one fused iNTT over
		// k rows).
		c.after(c.Engine.InverseView(c.Queues,
			c.rowView(k, func(j int) []uint64 { return accs[j].Coeffs[level+1] }),
			[]*ntt.Tables{spTbl}, c.deps...))
		c.launch(c.ewKernelJobs("ks_moddown_reduce", k, level+1,
			profileOf(isa.OpMul64Hi, isa.OpAdd64), 0, 16, gpu.PatternUnitStride,
			func(jb, j, lo, hi int) {
				mj := moduli[j]
				sp := accs[jb].Coeffs[level+1]
				d := tmps[jb].Coeffs[j]
				for x := lo; x < hi; x++ {
					d[x] = mj.BarrettReduce(sp[x])
				}
			}))
		for _, tp := range tmps {
			tp.IsNTT = false
		}
		c.fwdNTTJobs(tmps, params.TablesAt(level))
		c.launch(c.ewKernelJobs("ks_moddown_scale", k, level+1,
			profileOf(isa.OpMulMod, isa.OpAddMod), 0, 32, gpu.PatternUnitStride,
			func(jb, j, lo, hi int) {
				q := moduli[j].Value
				pInv := basis.SpecialInvOperand(L, j)
				d := tmps[jb].Coeffs[j]
				a := accs[jb].Coeffs[j]
				o := pouts[jb].Coeffs[j]
				for x := lo; x < hi; x++ {
					o[x] = pInv.MulMod(xmath.SubMod(a[x], d[x], q), q)
				}
			}))
	}
	c.freePolys(tmpBufs)
	c.freePolys(a0bufs)
	c.freePolys(a1bufs)
	return outs0, outs1, bufs0, bufs1
}

// RelinearizeBatch reduces degree-2 ciphertexts of a same-shape batch
// to degree 1 with one fused key-switch.
func (c *Context) RelinearizeBatch(cts []*Ciphertext, rlk *ckks.RelinKey) []*Ciphertext {
	k := len(cts)
	level := cts[0].CT.Level
	r0s, r1s, b0s, b1s := c.switchKeyJobs(component(cts, 2), &rlk.SwitchKey, level)
	c.addIntoJobs(r0s, r0s, component(cts, 0), level+1)
	c.addIntoJobs(r1s, r1s, component(cts, 1), level+1)
	outs := make([]*Ciphertext, k)
	for j := 0; j < k; j++ {
		r0s[j].IsNTT, r1s[j].IsNTT = true, true
		outs[j] = wrap(&ckks.Ciphertext{
			Value: []*poly.Poly{r0s[j], r1s[j]},
			Scale: cts[j].CT.Scale,
			Level: level,
		}, []*sycl.Buffer{b0s[j], b1s[j]})
	}
	return outs
}

// RescaleBatch divides every ciphertext of a same-shape batch by the
// last chain modulus, fusing each reduce/NTT/scale step across jobs.
func (c *Context) RescaleBatch(cts []*Ciphertext) []*Ciphertext {
	if cts[0].CT.Level == 0 {
		panic("core: cannot rescale at level 0")
	}
	k := len(cts)
	params := c.Params
	level := cts[0].CT.Level
	basis := params.Basis
	lastTbl := params.ChainTables[level]
	qLast := basis.Moduli[level].Value

	outs := make([]*Ciphertext, k)
	for j := range outs {
		outs[j] = wrap(&ckks.Ciphertext{Scale: cts[j].CT.Scale / float64(qLast), Level: level - 1}, nil)
	}
	lasts, lastBufs := c.allocPolys(k, 1)
	tmps, tmpBufs := c.allocPolys(k, 1)
	for ci := range cts[0].CT.Value {
		c.launch(c.ewKernelJobs("rs_copy_last", k, 1, profileOf(), 0, 16, gpu.PatternUnitStride,
			func(jb, _, lo, hi int) {
				copy(lasts[jb].Coeffs[0][lo:hi], cts[jb].CT.Value[ci].Coeffs[level][lo:hi])
			}))
		for _, l := range lasts {
			l.IsNTT = true
		}
		c.after(c.Engine.InverseView(c.Queues,
			c.rowView(k, func(j int) []uint64 { return lasts[j].Coeffs[0] }),
			[]*ntt.Tables{lastTbl}, c.deps...))
		for _, l := range lasts {
			l.IsNTT = false
		}

		dsts := make([]*poly.Poly, k)
		for j := 0; j < k; j++ {
			d, buf := c.allocPoly(level)
			d.IsNTT = true
			dsts[j] = d
			outs[j].CT.Value = append(outs[j].CT.Value, d)
			outs[j].bufs = append(outs[j].bufs, buf)
		}
		for j := 0; j < level; j++ {
			mj := basis.Moduli[j]
			inv := basis.InvLastOperand(level, j)
			c.launch(c.ewKernelJobs("rs_reduce", k, 1, profileOf(isa.OpMul64Hi, isa.OpAdd64), 0, 16, gpu.PatternUnitStride,
				func(jb, _, lo, hi int) {
					l := lasts[jb].Coeffs[0]
					d := tmps[jb].Coeffs[0]
					for x := lo; x < hi; x++ {
						d[x] = mj.BarrettReduce(l[x])
					}
				}))
			for _, tp := range tmps {
				tp.IsNTT = false
			}
			c.after(c.Engine.ForwardView(c.Queues,
				c.rowView(k, func(j int) []uint64 { return tmps[j].Coeffs[0] }),
				params.ChainTables[j:j+1], c.deps...))
			for _, tp := range tmps {
				tp.IsNTT = true
			}
			c.launch(c.ewKernelJobs("rs_scale", k, 1, profileOf(isa.OpMulMod, isa.OpAddMod), 0, 32, gpu.PatternUnitStride,
				func(jb, _, lo, hi int) {
					d := tmps[jb].Coeffs[0]
					srcJ := cts[jb].CT.Value[ci].Coeffs[j]
					dstJ := dsts[jb].Coeffs[j]
					for x := lo; x < hi; x++ {
						dstJ[x] = inv.MulMod(xmath.SubMod(srcJ[x], d[x], mj.Value), mj.Value)
					}
				}))
		}
	}
	c.freePolys(lastBufs)
	c.freePolys(tmpBufs)
	return outs
}

// ModSwitchBatch drops the last RNS component of every ciphertext in
// a same-shape batch (no kernels needed beyond bookkeeping copies: the
// residues are already what the smaller modulus requires).
func (c *Context) ModSwitchBatch(cts []*Ciphertext) []*Ciphertext {
	if cts[0].CT.Level == 0 {
		panic("core: cannot mod-switch at level 0")
	}
	k := len(cts)
	level := cts[0].CT.Level
	outs := make([]*Ciphertext, k)
	for j := range outs {
		outs[j] = wrap(&ckks.Ciphertext{Scale: cts[j].CT.Scale, Level: level - 1}, nil)
	}
	for ci := range cts[0].CT.Value {
		dsts := make([]*poly.Poly, k)
		for j := 0; j < k; j++ {
			d, buf := c.allocPoly(level)
			dsts[j] = d
			outs[j].CT.Value = append(outs[j].CT.Value, d)
			outs[j].bufs = append(outs[j].bufs, buf)
		}
		c.launch(c.ewKernelJobs("modswitch_copy", k, level, profileOf(), 0, 16, gpu.PatternUnitStride,
			func(jb, q, lo, hi int) {
				copy(dsts[jb].Coeffs[q][lo:hi], cts[jb].CT.Value[ci].Coeffs[q][lo:hi])
			}))
		for j := 0; j < k; j++ {
			dsts[j].IsNTT = cts[j].CT.Value[ci].IsNTT
		}
	}
	return outs
}

// RotateBatch rotates every ciphertext's message slots by rot with one
// fused automorphism + key-switch per batch.
func (c *Context) RotateBatch(cts []*Ciphertext, rot int, gk *ckks.GaloisKey) []*Ciphertext {
	k := len(cts)
	level := cts[0].CT.Level
	comps := level + 1
	perm := c.Params.GaloisPermutation(c.Params.GaloisElement(rot))

	// Automorphism in NTT form (SEAL's apply_galois_ntt): a gather
	// straight from the input rows.
	r0s, r0bufs := c.allocPolys(k, comps)
	r1s, r1bufs := c.allocPolys(k, comps)
	for i, dsts := range [][]*poly.Poly{r0s, r1s} {
		srcs := component(cts, i)
		c.launch(c.ewKernelJobs("galois_automorphism", k, comps, profileOf(), 4, 20, gpu.PatternGather,
			func(jb, q, lo, hi int) {
				poly.AutomorphismNTT(dsts[jb].Coeffs[q][lo:hi], srcs[jb].Coeffs[q], perm[lo:hi])
			}))
		for _, d := range dsts {
			d.IsNTT = true
		}
	}

	k0s, k1s, k0bufs, k1bufs := c.switchKeyJobs(r1s, &gk.SwitchKey, level)
	c.addIntoJobs(k0s, k0s, r0s, comps)
	outs := make([]*Ciphertext, k)
	for j := 0; j < k; j++ {
		k0s[j].IsNTT, k1s[j].IsNTT = true, true
		outs[j] = wrap(&ckks.Ciphertext{
			Value: []*poly.Poly{k0s[j], k1s[j]},
			Scale: cts[j].CT.Scale,
			Level: level,
		}, []*sycl.Buffer{k0bufs[j], k1bufs[j]})
	}
	c.freePolys(r0bufs)
	c.freePolys(r1bufs)
	return outs
}

// freeAllBatch returns every batch ciphertext's buffers to the cache.
func (c *Context) freeAllBatch(cts []*Ciphertext) {
	for _, ct := range cts {
		c.Free(ct)
	}
}

// MulLinBatch multiplies and relinearizes a same-shape batch pairwise.
func (c *Context) MulLinBatch(as, bs []*Ciphertext, rlk *ckks.RelinKey) []*Ciphertext {
	prods := c.MulBatch(as, bs)
	outs := c.RelinearizeBatch(prods, rlk)
	c.freeAllBatch(prods)
	return outs
}

// MulLinRSBatch multiplies, relinearizes and rescales a same-shape
// batch pairwise.
func (c *Context) MulLinRSBatch(as, bs []*Ciphertext, rlk *ckks.RelinKey) []*Ciphertext {
	lins := c.MulLinBatch(as, bs, rlk)
	outs := c.RescaleBatch(lins)
	c.freeAllBatch(lins)
	return outs
}

// SqrLinRSBatch squares, relinearizes and rescales a same-shape batch.
func (c *Context) SqrLinRSBatch(as []*Ciphertext, rlk *ckks.RelinKey) []*Ciphertext {
	sqs := c.SquareBatch(as)
	lins := c.RelinearizeBatch(sqs, rlk)
	c.freeAllBatch(sqs)
	outs := c.RescaleBatch(lins)
	c.freeAllBatch(lins)
	return outs
}
