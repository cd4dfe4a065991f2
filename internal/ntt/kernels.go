package ntt

import (
	"strconv"

	"xehe/internal/gpu"
	"xehe/internal/isa"
	"xehe/internal/sycl"
	"xehe/internal/xmath"
)

// applyRadixRound executes one forward radix-2^w round over view,
// which covers blocks [blockBase, blockBase+len(view)/(2T)) of a full
// transform at entry stage (m blocks, gap T). All w internal stages
// run on register-resident data, exactly as the high-radix kernels of
// Section III-B.5. The radix-8 round, the one every LocalRadix8
// transform spends its time in, is straight-line code with the block's
// twiddles loaded once; the other radices keep the generic loop.
//
// The round that ends the transform, whose last stage has gap 1, also
// does the last-round processing, reducing view to [0, p): fused into
// the radix-8 round (fwdRound8 at T = 4), after any other.
func applyRadixRound(view []uint64, t *Tables, m, T, w, blockBase int) {
	if w == 3 {
		fwdRound8(view, t, m+blockBase, T)
		return
	}
	genericRadixRound(view, t, m, T, w, blockBase)
	if T>>(w-1) == 1 {
		finalizeForward(view, t.Modulus.Value)
	}
}

// applyInvRadixRound executes one inverse (Gentleman–Sande) radix-2^w
// round over view, covering spans [spanBase, ...) of r*t elements of a
// transform whose first executed stage has GS loop parameters (m, t).
// It dispatches on w like applyRadixRound, and the round that ends the
// transform (m = 2^w) does the last-round processing, the n^{-1}
// scaling, likewise.
func applyInvRadixRound(view []uint64, tbl *Tables, m, t, w, spanBase int) {
	if w == 3 {
		invRound8(view, tbl, m>>3+spanBase, t)
		return
	}
	genericInvRadixRound(view, tbl, m, t, w, spanBase)
	if m == 1<<w {
		finalizeInverse(view, tbl)
	}
}

// genericRadixRound is the forward round for any w <= 4, written as
// the index arithmetic of the paper's kernels. It runs every round
// that is not radix-8 and is what the radix-8 rounds are tested against.
func genericRadixRound(view []uint64, t *Tables, m, T, w, blockBase int) {
	r := 1 << w
	stride := T >> (w - 1)
	p := t.Modulus.Value
	twoP := 2 * p
	nBlocks := len(view) / (2 * T)
	var regs [16]uint64
	for ib := 0; ib < nBlocks; ib++ {
		i := blockBase + ib
		bs := ib * 2 * T
		for j := 0; j < stride; j++ {
			base := bs + j
			for k := 0; k < r; k++ {
				regs[k] = view[base+k*stride]
			}
			for d := 0; d < w; d++ {
				grp := r >> d
				half := grp >> 1
				for k0 := 0; k0 < r; k0 += grp {
					g := k0 / grp
					wop := t.Roots[(m<<d)+(i<<d)+g]
					for k := k0; k < k0+half; k++ {
						regs[k], regs[k+half] = xmath.HarveyButterfly(regs[k], regs[k+half], wop, p, twoP)
					}
				}
			}
			for k := 0; k < r; k++ {
				view[base+k*stride] = regs[k]
			}
		}
	}
}

// genericInvRadixRound is the inverse counterpart of genericRadixRound.
func genericInvRadixRound(view []uint64, tbl *Tables, m, t, w, spanBase int) {
	r := 1 << w
	spanSize := r * t
	p := tbl.Modulus.Value
	twoP := 2 * p
	nSpans := len(view) / spanSize
	var regs [16]uint64
	for is := 0; is < nSpans; is++ {
		S := (spanBase + is) * spanSize
		local := view[is*spanSize : (is+1)*spanSize]
		for j := 0; j < t; j++ {
			for k := 0; k < r; k++ {
				regs[k] = local[j+k*t]
			}
			for d := 0; d < w; d++ {
				dist := 1 << d
				hStep := m >> (d + 1)
				blockOff := S / ((2 << d) * t)
				for k0 := 0; k0 < r; k0 += 2 * dist {
					wop := tbl.InvRoots[hStep+blockOff+(k0>>(d+1))]
					for k := k0; k < k0+dist; k++ {
						regs[k], regs[k+dist] = xmath.GSButterfly(regs[k], regs[k+dist], wop, p, twoP)
					}
				}
			}
			for k := 0; k < r; k++ {
				local[j+k*t] = regs[k]
			}
		}
	}
}

// The radix-8 rounds below take the tables (the Go rounds: the twiddle
// table and the modulus), the table slot of the first block's (or
// span's) coarsest twiddle —
// m+blockBase forward, (m>>3)+spanBase inverse; the finer stages sit at
// 2x and 4x that slot — and the gap. Each loads a block's twiddles
// once, cuts the block into its eight gap-strided lanes so the inner
// loop carries no bounds checks, and keeps the eight values in locals.
//
// fwdRound8 and invRound8 first offer their work to the AVX-512
// kernels (…Vector, vector_amd64.go), which take it where the CPU has
// AVX-512 and the lanes suit eight coefficients per instruction — on
// IFMA under moduli below wideBound where the CPU has it. The Go loops
// (…Go) run everything else — every round of a build or CPU without
// the kernels — and are the oracle the vector code is tested against:
// bit for bit, and modulo p for the IFMA-wide kernels' lazy values.

// kernels names the code family that runs a radix-8 round; a vector
// family's value indexes families (vector_amd64.go).
type kernels uint8

const (
	goLoops         kernels = iota // fwdRound8Go, invRound8Go, then the scalar finalize loops
	avx512Kernels                  // vector_amd64.s, 64-bit products (AVX-512F + DQ)
	ifmaKernels                    // vector_amd64.s, 52-bit products (AVX-512 IFMA), p < 2^50
	ifmaWideKernels                // vector_amd64.s, exact 52-bit halves (AVX-512 IFMA), p < 2^52
)

// ifmaRounds reports whether the IFMA kernels may run (xmath's check
// of the CPU; false without AVX-512, off amd64 and under purego). It
// is a variable so that tests can run the 64-bit kernels on an IFMA
// host.
var ifmaRounds = xmath.HasIFMA()

// fwdRound8 fuses three Cooley–Tukey stages on eight lanes with the
// block's 1 + 2 + 4 twiddles — the radix-8 kernel of Section III-B.5.
// At T = 4 the round is the transform's last and fuses the last-round
// processing too: its outputs are finalizeForward's, in [0, p).
func fwdRound8(view []uint64, tbl *Tables, first, T int) {
	if fwdRound8Vector(view, tbl, first, T) != goLoops {
		return
	}
	p := tbl.Modulus.Value
	fwdRound8Go(view, tbl.Roots, p, first, T)
	if T == 4 {
		finalizeForward(view, p)
	}
}

// fwdRound8Go is fwdRound8 in Go, one butterfly at a time.
func fwdRound8Go(view []uint64, roots []xmath.MulModOperand, p uint64, first, T int) {
	twoP := 2 * p
	s := T >> 2
	for bs, i := 0, first; bs+2*T <= len(view); bs, i = bs+2*T, i+1 {
		w0 := roots[i]
		w10, w11 := roots[2*i], roots[2*i+1]
		w2 := roots[4*i : 4*i+4]
		w20, w21, w22, w23 := w2[0], w2[1], w2[2], w2[3]
		blk := view[bs : bs+2*T]
		x0, x1, x2, x3 := blk[:s], blk[s:][:s], blk[2*s:][:s], blk[3*s:][:s]
		x4, x5, x6, x7 := blk[4*s:][:s], blk[5*s:][:s], blk[6*s:][:s], blk[7*s:][:s]
		for j := range x0 {
			a0, a1, a2, a3 := x0[j], x1[j], x2[j], x3[j]
			a4, a5, a6, a7 := x4[j], x5[j], x6[j], x7[j]
			a0, a4 = xmath.HarveyButterfly(a0, a4, w0, p, twoP)
			a1, a5 = xmath.HarveyButterfly(a1, a5, w0, p, twoP)
			a2, a6 = xmath.HarveyButterfly(a2, a6, w0, p, twoP)
			a3, a7 = xmath.HarveyButterfly(a3, a7, w0, p, twoP)
			a0, a2 = xmath.HarveyButterfly(a0, a2, w10, p, twoP)
			a1, a3 = xmath.HarveyButterfly(a1, a3, w10, p, twoP)
			a4, a6 = xmath.HarveyButterfly(a4, a6, w11, p, twoP)
			a5, a7 = xmath.HarveyButterfly(a5, a7, w11, p, twoP)
			a0, a1 = xmath.HarveyButterfly(a0, a1, w20, p, twoP)
			a2, a3 = xmath.HarveyButterfly(a2, a3, w21, p, twoP)
			a4, a5 = xmath.HarveyButterfly(a4, a5, w22, p, twoP)
			a6, a7 = xmath.HarveyButterfly(a6, a7, w23, p, twoP)
			x0[j], x1[j], x2[j], x3[j] = a0, a1, a2, a3
			x4[j], x5[j], x6[j], x7[j] = a4, a5, a6, a7
		}
	}
}

// invRound8 fuses three Gentleman–Sande stages on eight lanes with the
// span's 4 + 2 + 1 twiddles, the mirror image of fwdRound8. At
// first = 1 the round is the transform's last (one span, m = 8) and
// fuses the n^{-1} scaling: its outputs are finalizeInverse's.
func invRound8(view []uint64, tbl *Tables, first, t int) {
	if invRound8Vector(view, tbl, first, t) != goLoops {
		return
	}
	invRound8Go(view, tbl.InvRoots, tbl.Modulus.Value, first, t)
	if first == 1 {
		finalizeInverse(view, tbl)
	}
}

// invRound8Go is invRound8 in Go, one butterfly at a time.
func invRound8Go(view []uint64, roots []xmath.MulModOperand, p uint64, first, t int) {
	twoP := 2 * p
	for bs, i := 0, first; bs+8*t <= len(view); bs, i = bs+8*t, i+1 {
		w0 := roots[4*i : 4*i+4]
		w00, w01, w02, w03 := w0[0], w0[1], w0[2], w0[3]
		w10, w11 := roots[2*i], roots[2*i+1]
		w2 := roots[i]
		blk := view[bs : bs+8*t]
		x0, x1, x2, x3 := blk[:t], blk[t:][:t], blk[2*t:][:t], blk[3*t:][:t]
		x4, x5, x6, x7 := blk[4*t:][:t], blk[5*t:][:t], blk[6*t:][:t], blk[7*t:][:t]
		for j := range x0 {
			a0, a1, a2, a3 := x0[j], x1[j], x2[j], x3[j]
			a4, a5, a6, a7 := x4[j], x5[j], x6[j], x7[j]
			a0, a1 = xmath.GSButterfly(a0, a1, w00, p, twoP)
			a2, a3 = xmath.GSButterfly(a2, a3, w01, p, twoP)
			a4, a5 = xmath.GSButterfly(a4, a5, w02, p, twoP)
			a6, a7 = xmath.GSButterfly(a6, a7, w03, p, twoP)
			a0, a2 = xmath.GSButterfly(a0, a2, w10, p, twoP)
			a1, a3 = xmath.GSButterfly(a1, a3, w10, p, twoP)
			a4, a6 = xmath.GSButterfly(a4, a6, w11, p, twoP)
			a5, a7 = xmath.GSButterfly(a5, a7, w11, p, twoP)
			a0, a4 = xmath.GSButterfly(a0, a4, w2, p, twoP)
			a1, a5 = xmath.GSButterfly(a1, a5, w2, p, twoP)
			a2, a6 = xmath.GSButterfly(a2, a6, w2, p, twoP)
			a3, a7 = xmath.GSButterfly(a3, a7, w2, p, twoP)
			x0[j], x1[j], x2[j], x3[j] = a0, a1, a2, a3
			x4[j], x5[j], x6[j], x7[j] = a4, a5, a6, a7
		}
	}
}

// finalizeForward is the forward last-round processing: it reduces
// the lazy values of x to [0, p) in place. The vector rounds fuse it
// into the transform's last round, so it runs only where Go rounds
// ran: after the Go radix-8 round or a radix-2/4/16 round, and as the
// naive variant's final kernel.
func finalizeForward(x []uint64, p uint64) {
	for i, v := range x {
		x[i] = xmath.ReduceToRange(v, p)
	}
}

// finalizeInverse applies the n^{-1} scaling and reduces x to [0, p)
// in place; like finalizeForward, only where Go rounds ran.
func finalizeInverse(x []uint64, t *Tables) {
	p := t.Modulus.Value
	nInv := t.NInv
	for i, v := range x {
		x[i] = nInv.MulMod(v, p)
	}
}

// The builders below are the one place each kernel kind is described.
// Each returns a step: the descriptor computed from the shape alone,
// and the binder that closes the kernel's body over one batch's rows
// and tables (see step).

// globalRoundStep plans one radix-2^w round exchanged through global
// memory. The last inverse round fuses the last-round processing, as
// its body does (applyInvRadixRound).
func globalRoundStep(n, polys, qCount, w, stage int, forward bool) step {
	r := 1 << w
	isLast := !forward && stage-w == 0

	items := polys * qCount * (n / r)
	per := roundProfile(r)
	if isLast {
		per.Add(isa.OpMul64Lo, float64(r)) // fused n^{-1} scaling
		per.Add(isa.OpAdd64, float64(r))
	}
	return step{
		desc: sycl.Kernel{
			Name:  "ntt_global_radix" + strconv.Itoa(r),
			Range: gpu.NDRange{Global: [3]int{polys, qCount, n / r}, Local: n / r},
			Profile: gpu.KernelProfile{
				Items:           items,
				PerItem:         per,
				GlobalBytes:     float64(items) * float64(2*r) * 8,
				Pattern:         gpu.PatternUnitStride,
				GRFBytesPerItem: 8 * (3*r - 2),
			},
		},
		bind: func(view *BatchView, tbls []*Tables) func(*gpu.GroupCtx) {
			return func(g *gpu.GroupCtx) {
				row := view.Row(g.P, g.Q)
				tbl := tbls[g.Q]
				if forward {
					applyRadixRound(row, tbl, 1<<stage, n>>(stage+1), w, 0)
				} else {
					applyInvRadixRound(row, tbl, 1<<stage, n>>stage, w, 0)
				}
			}
		},
	}
}

// slmStep plans the single kernel that runs all SLM-resident rounds
// (ws) of the transform, with SIMD-shuffle stages and last-round
// processing fused as in Fig. 8: the body's last round does it
// (applyRadixRound, applyInvRadixRound).
func (e *Engine) slmStep(n, polys, qCount int, ws []int, stage int, forward bool) step {
	groupElems := slmGroupElems
	if n < groupElems {
		groupElems = n
	}

	r := e.V.Radix()
	slots := e.V.slots()
	itemElems := r
	if r == 2 {
		itemElems = 2 * slots
	}
	itemsPerSlice := n / itemElems
	items := polys * qCount * itemsPerSlice

	var per isa.Profile
	var extra float64
	slmRounds := 0
	simdGap := slots * simdWidth
	s := stage
	for _, w := range ws {
		rr := 1 << w
		// ALU work of this round, normalized per kernel item.
		scale := float64(n/rr) / float64(itemsPerSlice)
		per.AddProfile(roundProfile(rr), scale)
		// Exchange medium: radix-2 stages whose gap fits in the
		// subgroup exchange via SIMD shuffles; everything else goes
		// through SLM (send instructions, bank-conflict serialized).
		var gap int
		if forward {
			gap = n >> (s + 1)
			s += w
		} else {
			gap = n >> s
			s -= w
		}
		if r == 2 && gap <= simdGap {
			// Shuffle + lane-index arithmetic (Fig. 9).
			extra += (2 + 4) * float64(slots) * scale
		} else {
			slmRounds++
			sendCost := slmSendSlotsHighRadix
			if r == 2 {
				sendCost = slmSendSlotsRadix2
			}
			// Two accesses per element: 2 loads + 2 stores per radix-2
			// butterfly, or 2r accesses per high-radix item.
			extra += 2 * float64(rr) * sendCost * scale
		}
		if slots > 1 {
			// In-register data exchange + register pressure overhead of
			// multi-slot variants, on every stage (Section III-B.4).
			extra += multiSlotPenalty * float64((slots-1)*(slots-1)) * scale
		}
	}
	// Fused last round processing / inverse scaling.
	per.Add(isa.OpAdd64, float64(itemElems)*2)

	grf := 8 * (3*r - 2) // r data + 2(r-1) twiddle registers
	if r == 2 {
		grf = 8 * (4*slots + 2)
	}
	return step{
		desc: sycl.Kernel{
			Name:  "ntt_slm_" + e.V.String(),
			Range: gpu.NDRange{Global: [3]int{polys, qCount, n / groupElems}, Local: 1},
			Profile: gpu.KernelProfile{
				Items:             items,
				GroupItems:        groupElems / itemElems,
				PerItem:           per,
				ExtraSlotsPerItem: extra,
				GlobalBytes:       float64(polys*qCount*n) * 16, // load + store once
				Pattern:           gpu.PatternUnitStride,
				SLMBytes:          float64(slmRounds) * float64(polys*qCount*n) * 16,
				SLMConflictFactor: 1,
				Barriers:          slmRounds,
				GRFBytesPerItem:   grf,
			},
		},
		bind: func(view *BatchView, tbls []*Tables) func(*gpu.GroupCtx) {
			return func(g *gpu.GroupCtx) {
				tbl := tbls[g.Q]
				g0 := g.Group * groupElems
				row := view.Row(g.P, g.Q)[g0 : g0+groupElems]
				s := stage
				if forward {
					for _, w := range ws {
						T := n >> (s + 1)
						applyRadixRound(row, tbl, 1<<s, T, w, g0/(2*T))
						g.Barrier()
						s += w
					}
				} else {
					for _, w := range ws {
						t := n >> s
						applyInvRadixRound(row, tbl, 1<<s, t, w, g0/((1<<w)*t))
						g.Barrier()
						s -= w
					}
				}
			}
		},
	}
}

// naiveSteps plans one kernel per stage plus the last-round processing
// kernel — the Fig. 6 baseline.
func naiveSteps(n, polys, qCount int, forward bool) []step {
	logN := countStages(n)
	items := polys * qCount * (n / 2)
	rng := gpu.NDRange{Global: [3]int{polys, qCount, n / 2}, Local: n / 2}

	// The stages run the generic loop directly, not applyRadixRound:
	// this variant's last-round processing is its own kernel below,
	// not fused into its last stage.
	stageStep := func(stage int) step {
		return step{
			desc: sycl.Kernel{
				Name:  "ntt_naive_stage",
				Range: rng,
				Profile: gpu.KernelProfile{
					Items:       items,
					PerItem:     roundProfile(2),
					GlobalBytes: float64(items) * 4 * 8,
					Pattern:     gpu.PatternUnitStride,
				},
			},
			bind: func(view *BatchView, tbls []*Tables) func(*gpu.GroupCtx) {
				return func(g *gpu.GroupCtx) {
					row := view.Row(g.P, g.Q)
					tbl := tbls[g.Q]
					if forward {
						genericRadixRound(row, tbl, 1<<stage, n>>(stage+1), 1, 0)
					} else {
						genericInvRadixRound(row, tbl, 1<<stage, n>>stage, 1, 0)
					}
				}
			},
		}
	}

	var steps []step
	if forward {
		for stage := 0; stage < logN; stage++ {
			steps = append(steps, stageStep(stage))
		}
	} else {
		for stage := logN; stage > 0; stage-- {
			steps = append(steps, stageStep(stage))
		}
	}

	// Last round processing as its own kernel (not fused in the naive
	// implementation — the 2N extra accesses of Section III-B.1).
	var per isa.Profile
	per.Add(isa.OpAdd64, 4)
	per.Add(isa.OpIndex, 4)
	if !forward {
		per.Add(isa.OpMul64Lo, 2)
	}
	return append(steps, step{
		desc: sycl.Kernel{
			Name:  "ntt_naive_final",
			Range: rng,
			Profile: gpu.KernelProfile{
				Items:       items,
				PerItem:     per,
				GlobalBytes: float64(items) * 4 * 8,
				Pattern:     gpu.PatternUnitStride,
			},
		},
		bind: func(view *BatchView, tbls []*Tables) func(*gpu.GroupCtx) {
			return func(g *gpu.GroupCtx) {
				row := view.Row(g.P, g.Q)
				if forward {
					finalizeForward(row, tbls[g.Q].Modulus.Value)
				} else {
					finalizeInverse(row, tbls[g.Q])
				}
			}
		},
	})
}
