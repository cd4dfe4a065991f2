package core

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

// ewKernel builds an elementwise kernel over comps × N items whose
// body processes one component row range at a time.
func (c *Context) ewKernel(name string, comps int, per isa.Profile, extra, bytesPerItem float64, pattern gpu.MemPattern, body func(comp, lo, hi int)) *sycl.Kernel {
	n := c.Params.N
	k := &sycl.Kernel{
		Name:  name,
		Range: gpu.NDRange{Global: [3]int{1, comps, n}},
		Profile: gpu.KernelProfile{
			Items:             comps * n,
			PerItem:           per,
			ExtraSlotsPerItem: extra,
			GlobalBytes:       bytesPerItem * float64(comps*n),
			Pattern:           pattern,
		},
	}
	if !c.Cfg.Analytic {
		k.Body = func(g *gpu.GroupCtx) { body(g.Q, g.Base, g.Base+g.Size) }
	}
	return k
}

func profileOf(ops ...isa.Op) isa.Profile {
	var p isa.Profile
	for _, op := range ops {
		p.Add(op, 1)
	}
	p.Add(isa.OpIndex, 2)
	return p
}

// addInto launches dst = a + b over the first comps components.
func (c *Context) addInto(dst, a, b *poly.Poly, comps int) {
	moduli := c.Params.Moduli()
	c.launch(c.ewKernel("he_add", comps, profileOf(isa.OpAddMod), 0, 24, gpu.PatternUnitStride,
		func(q, lo, hi int) {
			p := moduli[q].Value
			da, db, dd := a.Coeffs[q], b.Coeffs[q], dst.Coeffs[q]
			for j := lo; j < hi; j++ {
				dd[j] = xmath.AddMod(da[j], db[j], p)
			}
		}))
	dst.IsNTT = a.IsNTT
}

// subInto launches dst = a - b.
func (c *Context) subInto(dst, a, b *poly.Poly, comps int) {
	moduli := c.Params.Moduli()
	c.launch(c.ewKernel("he_sub", comps, profileOf(isa.OpAddMod), 0, 24, gpu.PatternUnitStride,
		func(q, lo, hi int) {
			p := moduli[q].Value
			da, db, dd := a.Coeffs[q], b.Coeffs[q], dst.Coeffs[q]
			for j := lo; j < hi; j++ {
				dd[j] = xmath.SubMod(da[j], db[j], p)
			}
		}))
	dst.IsNTT = a.IsNTT
}

// mulInto launches the dyadic product dst = a ⊙ b.
func (c *Context) mulInto(dst, a, b *poly.Poly, comps int) {
	moduli := c.Params.Moduli()
	c.launch(c.ewKernel("he_dyadic_mul", comps, profileOf(isa.OpMulMod), 0, 24, gpu.PatternUnitStride,
		func(q, lo, hi int) {
			m := moduli[q]
			da, db, dd := a.Coeffs[q], b.Coeffs[q], dst.Coeffs[q]
			for j := lo; j < hi; j++ {
				dd[j] = m.MulMod(da[j], db[j])
			}
		}))
	dst.IsNTT = a.IsNTT
}

// madInto launches dst += a ⊙ b, fused (one reduction) when the
// mad_mod optimization is enabled, or as separate mul_mod + add_mod
// kernels in the baseline (Section III-A.1).
func (c *Context) madInto(dst, a, b *poly.Poly, comps int) {
	moduli := c.Params.Moduli()
	if c.Cfg.MadMod {
		c.launch(c.ewKernel("he_mad_mod", comps, profileOf(isa.OpMAdMod), 0, 32, gpu.PatternUnitStride,
			func(q, lo, hi int) {
				m := moduli[q]
				da, db, dd := a.Coeffs[q], b.Coeffs[q], dst.Coeffs[q]
				for j := lo; j < hi; j++ {
					dd[j] = m.MAdMod(da[j], db[j], dd[j])
				}
			}))
		return
	}
	c.launch(c.ewKernel("he_mul_then_add", comps, profileOf(isa.OpMulMod, isa.OpAddMod), 0, 40, gpu.PatternUnitStride,
		func(q, lo, hi int) {
			m := moduli[q]
			da, db, dd := a.Coeffs[q], b.Coeffs[q], dst.Coeffs[q]
			for j := lo; j < hi; j++ {
				dd[j] = xmath.AddMod(m.MulMod(da[j], db[j]), dd[j], m.Value)
			}
		}))
}

// fwdNTT / invNTT run the configured GPU NTT variant over all
// components of a polynomial.
func (c *Context) fwdNTT(p *poly.Poly, tbls []*ntt.Tables) {
	var data []uint64
	if !c.Cfg.Analytic {
		data = p.Data()
	}
	c.after(c.Engine.Forward(c.Queues, data, 1, tbls, c.deps...))
	p.IsNTT = true
}

func (c *Context) invNTT(p *poly.Poly, tbls []*ntt.Tables) {
	var data []uint64
	if !c.Cfg.Analytic {
		data = p.Data()
	}
	c.after(c.Engine.Inverse(c.Queues, data, 1, tbls, c.deps...))
	p.IsNTT = false
}

// Add returns a + b on device.
func (c *Context) Add(a, b *Ciphertext) *Ciphertext {
	level := a.CT.Level
	out := &ckks.Ciphertext{Scale: a.CT.Scale, Level: level}
	var bufs []*sycl.Buffer
	for i := range a.CT.Value {
		d, buf := c.allocPoly(level + 1)
		c.addInto(d, a.CT.Value[i], b.CT.Value[i], level+1)
		out.Value = append(out.Value, d)
		bufs = append(bufs, buf)
	}
	return wrap(out, bufs)
}

// Mul returns the degree-2 tensor product on device.
func (c *Context) Mul(a, b *Ciphertext) *Ciphertext {
	level := a.CT.Level
	comps := level + 1
	d0, b0 := c.allocPoly(comps)
	d1, b1 := c.allocPoly(comps)
	d2, b2 := c.allocPoly(comps)
	c.mulInto(d0, a.CT.Value[0], b.CT.Value[0], comps)
	c.mulInto(d1, a.CT.Value[0], b.CT.Value[1], comps)
	c.madInto(d1, a.CT.Value[1], b.CT.Value[0], comps)
	c.mulInto(d2, a.CT.Value[1], b.CT.Value[1], comps)
	for _, d := range []*poly.Poly{d0, d1, d2} {
		d.IsNTT = true
	}
	out := &ckks.Ciphertext{
		Value: []*poly.Poly{d0, d1, d2},
		Scale: a.CT.Scale * b.CT.Scale,
		Level: level,
	}
	return wrap(out, []*sycl.Buffer{b0, b1, b2})
}

// Square computes the degree-2 square (one dyadic product saved).
func (c *Context) Square(a *Ciphertext) *Ciphertext {
	level := a.CT.Level
	comps := level + 1
	d0, b0 := c.allocPoly(comps)
	d1, b1 := c.allocPoly(comps)
	d2, b2 := c.allocPoly(comps)
	c.mulInto(d0, a.CT.Value[0], a.CT.Value[0], comps)
	c.mulInto(d1, a.CT.Value[0], a.CT.Value[1], comps)
	c.addInto(d1, d1, d1, comps)
	c.mulInto(d2, a.CT.Value[1], a.CT.Value[1], comps)
	for _, d := range []*poly.Poly{d0, d1, d2} {
		d.IsNTT = true
	}
	out := &ckks.Ciphertext{
		Value: []*poly.Poly{d0, d1, d2},
		Scale: a.CT.Scale * a.CT.Scale,
		Level: level,
	}
	return wrap(out, []*sycl.Buffer{b0, b1, b2})
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

// switchKey is the device key-switching procedure (see the host
// reference in internal/ckks for the algorithm). It is the
// NTT-dominated kernel behind Relinearize and Rotate (Fig. 5).
func (c *Context) switchKey(target *poly.Poly, swk *ckks.SwitchKey, level int) (*poly.Poly, *sycl.Buffer, *poly.Poly, *sycl.Buffer) {
	params := c.Params
	n := params.N
	basis := params.Basis
	moduli := params.ModuliAt(level)
	L := params.MaxLevel()
	sp := basis.Special
	spTbl := params.SpecialTable

	// Step 1: target back to coefficient form (GPU iNTT).
	tCoeff, tBuf := c.allocPoly(level + 1)
	if !c.Cfg.Analytic {
		copy(tCoeff.Data(), target.Data()[:n*(level+1)])
	}
	tCoeff.IsNTT = true
	c.invNTT(tCoeff, params.TablesAt(level))

	acc0, a0buf := c.allocPoly(level + 2) // chain + special component
	acc1, a1buf := c.allocPoly(level + 2)
	if !c.Cfg.Analytic {
		clear(acc0.Data())
		clear(acc1.Data())
	}
	acc0.IsNTT, acc1.IsNTT = true, true

	// One extended digit buffer over the basis {q_0..q_l, p} minus the
	// digit's own modulus (see digitRow); kernels are batched across
	// moduli (one extend kernel, one batched NTT, one
	// multiply-accumulate kernel per digit), as the real backend
	// submits them.
	digit, dBuf := c.allocPoly(level + 1)
	extTbls := append(append([]*ntt.Tables{}, params.TablesAt(level)...), spTbl)
	extModuli := append(append([]xmath.Modulus{}, moduli...), sp)

	for i := 0; i <= level; i++ {
		di := tCoeff.Coeffs[i]
		dModuli := without(extModuli, i)
		// Reduce digit i into every other modulus (Barrett kernel).
		c.launch(c.ewKernel("ks_digit_extend", level+1,
			profileOf(isa.OpMul64Hi, isa.OpAdd64), 0, 16, gpu.PatternUnitStride,
			func(r, lo, hi int) {
				mr, d := dModuli[r], digit.Coeffs[r]
				for k := lo; k < hi; k++ {
					d[k] = mr.BarrettReduce(di[k])
				}
			}))
		// Batched NTT across those moduli (GPU engine).
		digit.IsNTT = false
		c.fwdNTT(digit, without(extTbls, i))
		// Multiply-accumulate with the key digit, all moduli in one
		// kernel. The special prime sits at L+1 in the switching key
		// regardless of the ciphertext level.
		bKey, aKey := swk.B[i], swk.A[i]
		madProfile := profileOf(isa.OpMAdMod, isa.OpMAdMod)
		if !c.Cfg.MadMod {
			madProfile = profileOf(isa.OpMulMod, isa.OpAddMod, isa.OpMulMod, isa.OpAddMod)
		}
		c.launch(c.ewKernel("ks_mad", level+2, madProfile, 0, 56, gpu.PatternUnitStride,
			func(j, lo, hi int) {
				keyIdx := j
				if j == level+1 {
					keyIdx = L + 1
				}
				mj := extModuli[j]
				d := target.Coeffs[i]
				if j != i {
					d = digit.Coeffs[digitRow(i, j)]
				}
				b := bKey.Coeffs[keyIdx]
				a := aKey.Coeffs[keyIdx]
				o0, o1 := acc0.Coeffs[j], acc1.Coeffs[j]
				mj.MAdModVec(o0[lo:hi], d[lo:hi], b[lo:hi])
				mj.MAdModVec(o1[lo:hi], d[lo:hi], a[lo:hi])
			}))
	}
	c.freePoly(dBuf)
	c.freePoly(tBuf)

	// Step 3: mod-down by P (batched across moduli).
	out0, o0buf := c.allocPoly(level + 1)
	out1, o1buf := c.allocPoly(level + 1)
	out0.IsNTT, out1.IsNTT = true, true
	tmp, tmpBuf := c.allocPoly(level + 1)
	for _, pair := range [2]struct {
		acc *poly.Poly
		out *poly.Poly
	}{{acc0, out0}, {acc1, out1}} {
		// Special component to coefficient form.
		specialView := &poly.Poly{N: n, Coeffs: pair.acc.Coeffs[level+1 : level+2], IsNTT: true}
		c.after(c.Engine.Inverse(c.Queues, specialView.Coeffs[0], 1, []*ntt.Tables{spTbl}, c.deps...))
		c.launch(c.ewKernel("ks_moddown_reduce", level+1,
			profileOf(isa.OpMul64Hi, isa.OpAdd64), 0, 16, gpu.PatternUnitStride,
			func(j, lo, hi int) {
				mj := moduli[j]
				sp := specialView.Coeffs[0]
				d := tmp.Coeffs[j]
				for k := lo; k < hi; k++ {
					d[k] = mj.BarrettReduce(sp[k])
				}
			}))
		tmp.IsNTT = false
		c.fwdNTT(tmp, params.TablesAt(level))
		acc, out := pair.acc, pair.out
		c.launch(c.ewKernel("ks_moddown_scale", level+1,
			profileOf(isa.OpMulMod, isa.OpAddMod), 0, 32, gpu.PatternUnitStride,
			func(j, lo, hi int) {
				q := moduli[j].Value
				pInv := basis.SpecialInvOperand(L, j)
				d := tmp.Coeffs[j]
				a := acc.Coeffs[j]
				o := out.Coeffs[j]
				for k := lo; k < hi; k++ {
					o[k] = pInv.MulMod(xmath.SubMod(a[k], d[k], q), q)
				}
			}))
	}
	c.freePoly(tmpBuf)
	c.freePoly(a0buf)
	c.freePoly(a1buf)
	return out0, o0buf, out1, o1buf
}

// Relinearize reduces a degree-2 device ciphertext to degree 1.
func (c *Context) Relinearize(ct *Ciphertext, rlk *ckks.RelinKey) *Ciphertext {
	level := ct.CT.Level
	r0, r0b, r1, r1b := c.switchKey(ct.CT.Value[2], &rlk.SwitchKey, level)
	c.addInto(r0, r0, ct.CT.Value[0], level+1)
	c.addInto(r1, r1, ct.CT.Value[1], level+1)
	r0.IsNTT, r1.IsNTT = true, true
	out := &ckks.Ciphertext{Value: []*poly.Poly{r0, r1}, Scale: ct.CT.Scale, Level: level}
	return wrap(out, []*sycl.Buffer{r0b, r1b})
}

// Rescale divides by the last chain modulus on device.
func (c *Context) Rescale(ct *Ciphertext) *Ciphertext {
	if ct.CT.Level == 0 {
		panic("core: cannot rescale at level 0")
	}
	params := c.Params
	level := ct.CT.Level
	basis := params.Basis
	lastTbl := params.ChainTables[level]
	qLast := basis.Moduli[level].Value

	out := &ckks.Ciphertext{Scale: ct.CT.Scale / float64(qLast), Level: level - 1}
	var bufs []*sycl.Buffer
	last, lastBuf := c.allocPoly(1)
	tmp, tmpBuf := c.allocPoly(1)
	for _, comp := range ct.CT.Value {
		src := comp
		c.launch(c.ewKernel("rs_copy_last", 1, profileOf(), 0, 16, gpu.PatternUnitStride,
			func(_, lo, hi int) {
				copy(last.Coeffs[0][lo:hi], src.Coeffs[level][lo:hi])
			}))
		last.IsNTT = true
		c.after(c.Engine.Inverse(c.Queues, last.Coeffs[0], 1, []*ntt.Tables{lastTbl}, c.deps...))

		dst, buf := c.allocPoly(level)
		dst.IsNTT = true
		for j := 0; j < level; j++ {
			mj := basis.Moduli[j]
			inv := basis.InvLastOperand(level, j)
			c.launch(c.ewKernel("rs_reduce", 1, profileOf(isa.OpMul64Hi, isa.OpAdd64), 0, 16, gpu.PatternUnitStride,
				func(_, lo, hi int) {
					l := last.Coeffs[0]
					d := tmp.Coeffs[0]
					for k := lo; k < hi; k++ {
						d[k] = mj.BarrettReduce(l[k])
					}
				}))
			tmp.IsNTT = false
			c.fwdNTT(tmp, params.ChainTables[j:j+1])
			srcJ := src.Coeffs[j]
			dstJ := dst.Coeffs[j]
			c.launch(c.ewKernel("rs_scale", 1, profileOf(isa.OpMulMod, isa.OpAddMod), 0, 32, gpu.PatternUnitStride,
				func(_, lo, hi int) {
					d := tmp.Coeffs[0]
					for k := lo; k < hi; k++ {
						dstJ[k] = inv.MulMod(xmath.SubMod(srcJ[k], d[k], mj.Value), mj.Value)
					}
				}))
		}
		out.Value = append(out.Value, dst)
		bufs = append(bufs, buf)
	}
	c.freePoly(lastBuf)
	c.freePoly(tmpBuf)
	return wrap(out, bufs)
}

// ModSwitch drops the last RNS component (no kernels needed beyond
// bookkeeping: the residues are already what the smaller modulus
// requires).
func (c *Context) ModSwitch(ct *Ciphertext) *Ciphertext {
	if ct.CT.Level == 0 {
		panic("core: cannot mod-switch at level 0")
	}
	out := &ckks.Ciphertext{Scale: ct.CT.Scale, Level: ct.CT.Level - 1}
	var bufs []*sycl.Buffer
	for _, comp := range ct.CT.Value {
		d, buf := c.allocPoly(ct.CT.Level)
		c.launch(c.ewKernel("modswitch_copy", ct.CT.Level, profileOf(), 0, 16, gpu.PatternUnitStride,
			func(q, lo, hi int) {
				copy(d.Coeffs[q][lo:hi], comp.Coeffs[q][lo:hi])
			}))
		d.IsNTT = comp.IsNTT
		out.Value = append(out.Value, d)
		bufs = append(bufs, buf)
	}
	return wrap(out, bufs)
}

// Rotate rotates message slots by k using the Galois key.
func (c *Context) Rotate(ct *Ciphertext, k int, gk *ckks.GaloisKey) *Ciphertext {
	level := ct.CT.Level
	comps := level + 1
	perm := c.Params.GaloisPermutation(c.Params.GaloisElement(k))

	// Automorphism in NTT form (SEAL's apply_galois_ntt): a gather
	// straight from the input rows.
	r0, r0b := c.allocPoly(comps)
	r1, r1b := c.allocPoly(comps)
	for i, dst := range []*poly.Poly{r0, r1} {
		src := ct.CT.Value[i]
		c.launch(c.ewKernel("galois_automorphism", comps, profileOf(), 4, 20, gpu.PatternGather,
			func(q, lo, hi int) {
				poly.AutomorphismNTT(dst.Coeffs[q][lo:hi], src.Coeffs[q], perm[lo:hi])
			}))
		dst.IsNTT = true
	}

	k0, k0b, k1, k1b := c.switchKey(r1, &gk.SwitchKey, level)
	c.addInto(k0, k0, r0, comps)
	k0.IsNTT, k1.IsNTT = true, true
	c.freePoly(r0b)
	c.freePoly(r1b)
	out := &ckks.Ciphertext{Value: []*poly.Poly{k0, k1}, Scale: ct.CT.Scale, Level: level}
	return wrap(out, []*sycl.Buffer{k0b, k1b})
}
