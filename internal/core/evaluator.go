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

// launch submits the elementwise kernel ewKernelJobs filled to the
// context's queue(s), priced per launch (it has no plan), chaining the
// asynchronous pipeline dependencies through the context's tail.
func (c *Context) launch() {
	c.deps = sycl.Launch(c.tail, c.Queues, &c.ew, sycl.Price(c.Queues, &c.ew), c.deps...)
}

// rowChain runs fn, a sequence of launches over one row space, with the
// queue held: their bodies run when fn returns, row by row, so each row
// goes through the whole sequence while it is still in cache
// (ARCHITECTURE.md, "Row order"). Every launch in fn must map (job,
// row) to the same rows — an elementwise body's (g.P, g.Q) and a
// rowsView's (j, q) — and read nothing another row of fn writes. No
// buffer may be freed inside fn (freePolys panics): a held body could
// still read it. A panic out of fn drops the held bodies (gpu.Queue.Hold).
func (c *Context) rowChain(fn func()) {
	c.inChain = true
	defer func() { c.inChain = false }()
	c.Queues[0].Raw().Hold(fn)
}

// transform runs one batched NTT over view through the engine's plan,
// chaining the pipeline through the context's tail.
func (c *Context) transform(view *ntt.BatchView, tbls []*ntt.Tables, forward bool) {
	if forward {
		c.deps = c.Engine.ForwardView(c.Queues, view, tbls, c.tail, c.deps...)
	} else {
		c.deps = c.Engine.InverseView(c.Queues, view, tbls, c.tail, c.deps...)
	}
}

func profileOf(ops ...isa.Op) isa.Profile {
	var p isa.Profile
	for _, op := range ops {
		p.Add(op, 1)
	}
	p.Add(isa.OpIndex, 2)
	return p
}

// lazySum is the ALU work of one sum of `terms` products under a single
// reduction: terms-1 unreduced 128-bit multiply-adds, then the step the
// paper fuses (Section III-A.1) — multiply, add and reduce as one
// mad_mod, or as mul_mod then add_mod in the baseline.
func (c *Context) lazySum(terms int) isa.Profile {
	var p isa.Profile
	p.Add(isa.OpMul64Lo, float64(terms-1))
	p.Add(isa.OpMul64Hi, float64(terms-1))
	p.Add(isa.OpAdd64, 2*float64(terms-1))
	if c.Cfg.MadMod {
		p.Add(isa.OpMAdMod, 1)
	} else {
		p.Add(isa.OpMulMod, 1)
		p.Add(isa.OpAddMod, 1)
	}
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

// ewKernelJobs fills the context's elementwise descriptor (Context.ew)
// with one body-less kernel over jobs × comps × N items, for launch to
// submit. The analytic profile carries the summed item count, so
// compute and memory cost scale with the batch while launch overhead is
// paid once. A functional context installs the body in between, with
// rowBody inside an `if !c.Cfg.Analytic`, so a timing-only launch never
// builds the closure.
func (c *Context) ewKernelJobs(name string, jobs, comps int, per isa.Profile, extra, bytesPerItem float64, pattern gpu.MemPattern) {
	n := c.Params.N
	c.ew = sycl.Kernel{
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
}

// rowBody adapts an elementwise body, which processes one (job,
// component) row range at a time, to a kernel body.
func rowBody(body func(job, comp, lo, hi int)) func(*gpu.GroupCtx) {
	return func(g *gpu.GroupCtx) { body(g.P, g.Q, g.Base, g.Base+g.Size) }
}

// rowsView stitches cols rows per job, from whatever buffers they live
// in, into one k × cols view: row(j, q) is job j's row under tables
// entry q. A timing-only context has no rows to stitch: its engine
// reads the view's shape alone, and one view per shape serves.
func (c *Context) rowsView(k, cols int, row func(j, q int) []uint64) *ntt.BatchView {
	if c.Cfg.Analytic {
		view, ok := c.views[[2]int{k, cols}]
		if !ok {
			view = ntt.ShapeView(k, cols, c.Params.N)
			c.views[[2]int{k, cols}] = view
		}
		return view
	}
	view := ntt.NewBatchView(k, cols, c.Params.N)
	for j := 0; j < k; j++ {
		for q := 0; q < cols; q++ {
			view.SetRow(j, q, row(j, q))
		}
	}
	return view
}

// polysView is the view of the first cols components of every
// polynomial (rows stay in the jobs' own device buffers).
func (c *Context) polysView(ps []*poly.Poly, cols int) *ntt.BatchView {
	return c.rowsView(len(ps), cols, func(j, q int) []uint64 { return ps[j].Coeffs[q] })
}

// fwdNTTJobs / invNTTJobs run the configured GPU NTT variant over all
// components of every job's polynomial as one fused launch sequence.
func (c *Context) fwdNTTJobs(ps []*poly.Poly, tbls []*ntt.Tables) {
	c.transform(c.polysView(ps, len(tbls)), tbls, true)
	for _, p := range ps {
		p.IsNTT = true
	}
}

func (c *Context) invNTTJobs(ps []*poly.Poly, tbls []*ntt.Tables) {
	c.transform(c.polysView(ps, len(tbls)), tbls, false)
	for _, p := range ps {
		p.IsNTT = false
	}
}

// allocPolys obtains one device-backed polynomial per job.
func (c *Context) allocPolys(k, components int) ([]*poly.Poly, []*sycl.Buffer) {
	ps := make([]*poly.Poly, k)
	bufs := make([]*sycl.Buffer, k)
	for j := 0; j < k; j++ {
		ps[j] = new(poly.Poly)
		bufs[j] = c.allocPoly(ps[j], components, nil)
	}
	return ps, bufs
}

// allocCts allocates one ciphertext per job: polys polynomials of rows
// components each, marked NTT-form, at the given level, scale(j) as its
// scale.
func (c *Context) allocCts(k, polys, rows, level int, scale func(j int) float64) []*Ciphertext {
	outs := make([]*Ciphertext, k)
	for j := range outs {
		outs[j] = newCt(polys, level, scale(j))
		for i := range polys {
			c.fill(outs[j], i, rows, true)
		}
	}
	return outs
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
	c.ewKernelJobs("he_add", len(dsts), comps, profileOf(isa.OpAddMod), 0, 24, gpu.PatternUnitStride)
	if !c.Cfg.Analytic {
		c.ew.Body = rowBody(func(jb, q, lo, hi int) {
			moduli[q].AddRow(dsts[jb].Coeffs[q][lo:hi], as[jb].Coeffs[q][lo:hi], bs[jb].Coeffs[q][lo:hi])
		})
	}
	c.launch()
	for j := range dsts {
		dsts[j].IsNTT = as[j].IsNTT
	}
}

// madIntoJobs launches dsts[j] += as[j] ⊙ bs[j], priced as the fused
// mad_mod (one reduction) when that optimization is enabled, or as
// separate mul_mod + add_mod passes in the baseline (Section III-A.1).
// Both give the canonical residue, so the host runs the fused row for
// either.
func (c *Context) madIntoJobs(dsts, as, bs []*poly.Poly, comps int) {
	moduli := c.Params.Moduli()
	if c.Cfg.MadMod {
		c.ewKernelJobs("he_mad_mod", len(dsts), comps, profileOf(isa.OpMAdMod), 0, 32, gpu.PatternUnitStride)
	} else {
		c.ewKernelJobs("he_mul_then_add", len(dsts), comps, profileOf(isa.OpMulMod, isa.OpAddMod), 0, 40, gpu.PatternUnitStride)
	}
	if !c.Cfg.Analytic {
		c.ew.Body = rowBody(func(jb, q, lo, hi int) {
			dd := dsts[jb].Coeffs[q][lo:hi]
			moduli[q].MulAddRow(dd, as[jb].Coeffs[q][lo:hi], bs[jb].Coeffs[q][lo:hi], dd)
		})
	}
	c.launch()
}

// AddBatch returns as[j] + bs[j] for a same-shape batch, one fused
// kernel per ciphertext component.
func (c *Context) AddBatch(as, bs []*Ciphertext) []*Ciphertext {
	level := as[0].CT.Level
	outs := c.allocCts(len(as), len(as[0].CT.Value), level+1, level, func(j int) float64 { return as[j].CT.Scale })
	for i := range as[0].CT.Value {
		c.addIntoJobs(component(outs, i), component(as, i), component(bs, i), level+1)
	}
	return outs
}

// MulBatch returns the degree-2 tensor products of a same-shape batch:
// one kernel reads the four input rows once and writes (a0b0,
// a0b1 + a1b0, a1b1), the middle sum under one reduction.
func (c *Context) MulBatch(as, bs []*Ciphertext) []*Ciphertext {
	level := as[0].CT.Level
	moduli := c.Params.Moduli()
	outs := c.allocCts(len(as), 3, level+1, level, func(j int) float64 { return as[j].CT.Scale * bs[j].CT.Scale })
	per := profileOf(isa.OpMulMod, isa.OpMulMod)
	per.AddProfile(c.lazySum(2), 1)
	c.ewKernelJobs("he_tensor", len(as), level+1, per, 0, 56, gpu.PatternUnitStride)
	if !c.Cfg.Analytic {
		c.ew.Body = rowBody(func(jb, q, lo, hi int) {
			a, b, d := as[jb].CT.Value, bs[jb].CT.Value, outs[jb].CT.Value
			moduli[q].TensorRow(d[0].Coeffs[q][lo:hi], d[1].Coeffs[q][lo:hi], d[2].Coeffs[q][lo:hi],
				a[0].Coeffs[q][lo:hi], a[1].Coeffs[q][lo:hi], b[0].Coeffs[q][lo:hi], b[1].Coeffs[q][lo:hi])
		})
	}
	c.launch()
	return outs
}

// SquareBatch computes the degree-2 squares of a same-shape batch in
// one kernel (one dyadic product saved per job: the middle term is
// a0a1 doubled). The host body is the tensor row with b = a: 2·a0a1
// reduced once is the residue the priced mul_mod + add_mod give.
func (c *Context) SquareBatch(as []*Ciphertext) []*Ciphertext {
	level := as[0].CT.Level
	moduli := c.Params.Moduli()
	outs := c.allocCts(len(as), 3, level+1, level, func(j int) float64 { return as[j].CT.Scale * as[j].CT.Scale })
	c.ewKernelJobs("he_square", len(as), level+1, profileOf(isa.OpMulMod, isa.OpMulMod, isa.OpMulMod, isa.OpAddMod), 0, 40, gpu.PatternUnitStride)
	if !c.Cfg.Analytic {
		c.ew.Body = rowBody(func(jb, q, lo, hi int) {
			a, d := as[jb].CT.Value, outs[jb].CT.Value
			a0, a1 := a[0].Coeffs[q][lo:hi], a[1].Coeffs[q][lo:hi]
			moduli[q].TensorRow(d[0].Coeffs[q][lo:hi], d[1].Coeffs[q][lo:hi], d[2].Coeffs[q][lo:hi], a0, a1, a0, a1)
		})
	}
	c.launch()
	return outs
}

// switchKeyJobs is the device key-switching procedure (see the host
// reference in internal/ckks for the algorithm), the NTT-dominated
// kernel behind Relinearize and Rotate (Fig. 5). Every step is one pass
// over the whole batch and all c = level+1 digits: one extend kernel and
// one NTT sequence over jobs × c² rows, one inner-product kernel that
// sums the c digit products of both accumulators unreduced and reduces
// each once, and one mod-down sequence for both accumulators whose last
// kernel also adds the caller's addends. It returns, per job, the
// degree-1 ciphertext (addends[0] + ks0, addends[1] + ks1) at like[j]'s
// scale and level; a nil addends entry adds nothing.
func (c *Context) switchKeyJobs(like []*Ciphertext, targets []*poly.Poly, addends [2][]*poly.Poly, swk *ckks.SwitchKey) []*Ciphertext {
	k := len(targets)
	params := c.Params
	n := params.N
	basis := params.Basis
	level := like[0].CT.Level
	comps := level + 1
	moduli := params.ModuliAt(level)
	L := params.MaxLevel()
	extTbls := append(slices.Clone(params.TablesAt(level)), params.SpecialTable)
	extModuli := append(slices.Clone(moduli), basis.Special)

	// The key rows of every digit under each modulus of {q_0..q_l, p}
	// (the special prime sits at L+1 in the key whatever the level),
	// gathered here and not in the kernel body: a malformed key panics
	// on the submitting goroutine, where the chain executor recovers.
	bKey, aKey := make([][][]uint64, comps+1), make([][][]uint64, comps+1)
	for j := range bKey {
		keyIdx := j
		if j == comps {
			keyIdx = L + 1
		}
		bKey[j], aKey[j] = make([][]uint64, comps), make([][]uint64, comps)
		for i := range comps {
			bKey[j][i] = swk.B[i].Coeffs[keyIdx][:n]
			aKey[j][i] = swk.A[i].Coeffs[keyIdx][:n]
		}
	}

	// Step 1: targets back to coefficient form, out of place.
	tCoeffs, tBufs := c.allocPolys(k, comps)
	c.rowChain(func() {
		c.ewKernelJobs("ks_copy_target", k, comps, profileOf(), 0, 16, gpu.PatternUnitStride)
		if !c.Cfg.Analytic {
			c.ew.Body = rowBody(func(jb, q, lo, hi int) {
				copy(tCoeffs[jb].Coeffs[q][lo:hi], targets[jb].Coeffs[q][lo:hi])
			})
		}
		c.launch()
		c.invNTTJobs(tCoeffs, params.TablesAt(level))
	})

	// Step 2: digit i is row i of the target reduced into every other
	// modulus of the extended basis (see digitRow) and transformed
	// there. Each digit keeps a buffer of its own per job — c rows, a
	// size the cache already holds — and the c buffers are stitched
	// into one launch: column i*c+r is row r of digit i.
	digits := make([][]*poly.Poly, comps)
	dBufs := make([][]*sycl.Buffer, comps)
	var dModuli []xmath.Modulus
	var dTbls []*ntt.Tables
	for i := range digits {
		digits[i], dBufs[i] = c.allocPolys(k, comps)
		dModuli = append(dModuli, without(extModuli, i)...)
		dTbls = append(dTbls, without(extTbls, i)...)
	}
	c.rowChain(func() {
		c.ewKernelJobs("ks_digit_extend", k, comps*comps,
			profileOf(isa.OpMul64Hi, isa.OpAdd64), 0, 16, gpu.PatternUnitStride)
		if !c.Cfg.Analytic {
			c.ew.Body = rowBody(func(jb, r, lo, hi int) {
				src, dst := tCoeffs[jb].Coeffs[r/comps], digits[r/comps][jb].Coeffs[r%comps]
				dModuli[r].ReduceRow(dst[lo:hi], src[lo:hi])
			})
		}
		c.launch()
		c.transform(c.rowsView(k, comps*comps, func(jb, r int) []uint64 { return digits[r/comps][jb].Coeffs[r%comps] }),
			dTbls, true)
	})

	// Inner product with the key: per coefficient and modulus, the c
	// digit products of each accumulator are summed unreduced in 128
	// bits (c <= xmath.MaxLazyTerms by construction of the basis) and
	// reduced once, so the accumulators are written once and every
	// digit row is read once for both.
	var accs [2][]*poly.Poly
	var accBufs [2][]*sycl.Buffer
	for a := range accs {
		accs[a], accBufs[a] = c.allocPolys(k, comps+1) // chain + special component
	}
	per := profileOf()
	per.AddProfile(c.lazySum(comps), 2)
	c.ewKernelJobs("ks_inner_product", k, comps+1, per, 0, float64(24*comps+16), gpu.PatternUnitStride)
	if !c.Cfg.Analytic {
		// The c rows each (job, modulus) row sums over — the target's own
		// row under its modulus, digit i's row under every other — are
		// gathered before the launch, like the key rows: row r = jb·(c+1)
		// + j owns dRows[r·c : (r+1)·c].
		dRows := make([][]uint64, k*(comps+1)*comps)
		for r := range k * (comps + 1) {
			jb, j := r/(comps+1), r%(comps+1)
			for i := range comps {
				row := targets[jb].Coeffs[i]
				if j != i {
					row = digits[i][jb].Coeffs[digitRow(i, j)]
				}
				dRows[r*comps+i] = row
			}
		}
		c.ew.Body = rowBody(func(jb, j, lo, hi int) {
			r := jb*(comps+1) + j
			extModuli[j].InnerProductPair(accs[0][jb].Coeffs[j], accs[1][jb].Coeffs[j], dRows[r*comps:(r+1)*comps], bKey[j], aKey[j], lo, hi)
		})
	}
	c.launch()
	for _, bufs := range dBufs {
		c.freePolys(bufs)
	}
	c.freePolys(tBufs)

	// Step 3: mod-down by P, both accumulators at once. The special
	// components go to coefficient form, are reduced into every chain
	// modulus straight into the result rows, transformed there, and the
	// scale kernel finishes res = (acc - res) * p^-1 (+ addend) in place.
	c.transform(c.rowsView(k, 2, func(jb, a int) []uint64 { return accs[a][jb].Coeffs[comps] }),
		[]*ntt.Tables{params.SpecialTable, params.SpecialTable}, false)
	outs := c.allocCts(k, 2, comps, level, func(j int) float64 { return like[j].CT.Scale })
	// A row with an addend reads one more word per item and does one
	// more add_mod; Rotate has an addend on half of its rows.
	added := 0.0
	for _, add := range addends {
		if add != nil {
			added += 0.5
		}
	}
	c.rowChain(func() {
		c.ewKernelJobs("ks_moddown_reduce", k, 2*comps,
			profileOf(isa.OpMul64Hi, isa.OpAdd64), 0, 16, gpu.PatternUnitStride)
		if !c.Cfg.Analytic {
			c.ew.Body = rowBody(func(jb, r, lo, hi int) {
				a, j := r/comps, r%comps
				sp, d := accs[a][jb].Coeffs[comps], outs[jb].CT.Value[a].Coeffs[j]
				moduli[j].ReduceRow(d[lo:hi], sp[lo:hi])
			})
		}
		c.launch()
		c.transform(c.rowsView(k, 2*comps, func(jb, r int) []uint64 { return outs[jb].CT.Value[r/comps].Coeffs[r%comps] }),
			slices.Repeat(params.TablesAt(level), 2), true)
		per := profileOf(isa.OpMulMod, isa.OpAddMod)
		per.Add(isa.OpAddMod, added)
		c.ewKernelJobs("ks_moddown_scale", k, 2*comps, per, 0, 32+8*added, gpu.PatternUnitStride)
		if !c.Cfg.Analytic {
			c.ew.Body = rowBody(func(jb, r, lo, hi int) {
				a, j := r/comps, r%comps
				acc, o := accs[a][jb].Coeffs[j], outs[jb].CT.Value[a].Coeffs[j]
				var add []uint64
				if addends[a] != nil {
					add = addends[a][jb].Coeffs[j][lo:hi]
				}
				basis.SpecialInvOperand(L, j).SubMulRow(o[lo:hi], acc[lo:hi], add, moduli[j].Value)
			})
		}
		c.launch()
	})
	c.freePolys(accBufs[0])
	c.freePolys(accBufs[1])
	return outs
}

// RelinearizeBatch reduces degree-2 ciphertexts of a same-shape batch
// to degree 1 with one key switch of c2, which adds c0 and c1 on its
// way out.
func (c *Context) RelinearizeBatch(cts []*Ciphertext, rlk *ckks.RelinKey) []*Ciphertext {
	return c.switchKeyJobs(cts, component(cts, 2), [2][]*poly.Poly{component(cts, 0), component(cts, 1)}, &rlk.SwitchKey)
}

// RescaleBatch divides every ciphertext of a same-shape batch by the
// last chain modulus: the last rows of all components go to coefficient
// form in one launch sequence, and reduce / NTT / scale each run once
// over jobs × components × remaining moduli, in the result rows.
func (c *Context) RescaleBatch(cts []*Ciphertext) []*Ciphertext {
	if cts[0].CT.Level == 0 {
		panic("core: cannot rescale at level 0")
	}
	k := len(cts)
	params := c.Params
	level := cts[0].CT.Level
	polys := len(cts[0].CT.Value)
	basis := params.Basis
	qLast := basis.Moduli[level].Value

	// Row i of a job's `lasts` is the last row of its component i.
	lasts, lastBufs := c.allocPolys(k, polys)
	c.rowChain(func() {
		c.ewKernelJobs("rs_copy_last", k, polys, profileOf(), 0, 16, gpu.PatternUnitStride)
		if !c.Cfg.Analytic {
			c.ew.Body = rowBody(func(jb, i, lo, hi int) {
				copy(lasts[jb].Coeffs[i][lo:hi], cts[jb].CT.Value[i].Coeffs[level][lo:hi])
			})
		}
		c.launch()
		c.invNTTJobs(lasts, slices.Repeat(params.ChainTables[level:level+1], polys))
	})

	// From here on row r of the range is modulus r%level of component
	// r/level, and lives in the result.
	outs := c.allocCts(k, polys, level, level-1, func(j int) float64 { return cts[j].CT.Scale / float64(qLast) })
	c.rowChain(func() {
		c.ewKernelJobs("rs_reduce", k, polys*level, profileOf(isa.OpMul64Hi, isa.OpAdd64), 0, 16, gpu.PatternUnitStride)
		if !c.Cfg.Analytic {
			c.ew.Body = rowBody(func(jb, r, lo, hi int) {
				i, j := r/level, r%level
				basis.Moduli[j].ReduceRow(outs[jb].CT.Value[i].Coeffs[j][lo:hi], lasts[jb].Coeffs[i][lo:hi])
			})
		}
		c.launch()
		c.transform(c.rowsView(k, polys*level, func(jb, r int) []uint64 { return outs[jb].CT.Value[r/level].Coeffs[r%level] }),
			slices.Repeat(params.ChainTables[:level], polys), true)
		c.ewKernelJobs("rs_scale", k, polys*level, profileOf(isa.OpMulMod, isa.OpAddMod), 0, 32, gpu.PatternUnitStride)
		if !c.Cfg.Analytic {
			c.ew.Body = rowBody(func(jb, r, lo, hi int) {
				i, j := r/level, r%level
				basis.InvLastOperand(level, j).SubMulRow(outs[jb].CT.Value[i].Coeffs[j][lo:hi], cts[jb].CT.Value[i].Coeffs[j][lo:hi], nil, basis.Moduli[j].Value)
			})
		}
		c.launch()
	})
	c.freePolys(lastBufs)
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
	outs := c.allocCts(k, len(cts[0].CT.Value), level, level-1, func(j int) float64 { return cts[j].CT.Scale })
	for ci := range cts[0].CT.Value {
		c.ewKernelJobs("modswitch_copy", k, level, profileOf(), 0, 16, gpu.PatternUnitStride)
		if !c.Cfg.Analytic {
			c.ew.Body = rowBody(func(jb, q, lo, hi int) {
				copy(outs[jb].CT.Value[ci].Coeffs[q][lo:hi], cts[jb].CT.Value[ci].Coeffs[q][lo:hi])
			})
		}
		c.launch()
		for j := 0; j < k; j++ {
			outs[j].CT.Value[ci].IsNTT = cts[j].CT.Value[ci].IsNTT
		}
	}
	return outs
}

// RotateBatch rotates every ciphertext's message slots by rot with one
// automorphism kernel and one key switch per batch.
func (c *Context) RotateBatch(cts []*Ciphertext, rot int, gk *ckks.GaloisKey) []*Ciphertext {
	k := len(cts)
	comps := cts[0].CT.Level + 1
	perm := c.Params.GaloisPermutation(c.Params.GaloisElement(rot))

	// Automorphism in NTT form (SEAL's apply_galois_ntt): a gather
	// straight from the input rows, both components in one launch.
	var rs [2][]*poly.Poly
	var rBufs [2][]*sycl.Buffer
	for i := range rs {
		rs[i], rBufs[i] = c.allocPolys(k, comps)
	}
	c.ewKernelJobs("galois_automorphism", k, 2*comps, profileOf(), 4, 20, gpu.PatternGather)
	if !c.Cfg.Analytic {
		c.ew.Body = rowBody(func(jb, r, lo, hi int) {
			i, q := r/comps, r%comps
			poly.AutomorphismNTT(rs[i][jb].Coeffs[q][lo:hi], cts[jb].CT.Value[i].Coeffs[q], perm[lo:hi])
		})
	}
	c.launch()

	// Key-switch the c1 part from s(x^g) to s; the permuted c0 rides
	// into the result on the mod-down.
	outs := c.switchKeyJobs(cts, rs[1], [2][]*poly.Poly{rs[0], nil}, &gk.SwitchKey)
	c.freePolys(rBufs[0])
	c.freePolys(rBufs[1])
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
