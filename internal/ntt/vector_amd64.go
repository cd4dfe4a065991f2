//go:build !purego

package ntt

import "xehe/internal/xmath"

// vectorRounds reports whether the radix-8 rounds may run on AVX-512
// (vector_amd64.s): xmath's one check of the CPU and the OS.
var vectorRounds = xmath.HasAVX512()

// roundKernels picks the family that runs rounds under modulus p where
// the CPU has IFMA: the IFMA kernels below ifmaBound (NewTables stores
// those moduli's quotients in the 52-bit form they read), the IFMA-wide
// kernels below wideBound; the 64-bit kernels above, or without IFMA;
// none without AVX-512.
func roundKernels(p uint64) kernels {
	switch {
	case !vectorRounds:
		return goLoops
	case ifmaRounds && p < ifmaBound:
		return ifmaKernels
	case ifmaRounds && p < wideBound:
		return ifmaWideKernels
	}
	return avx512Kernels
}

// family holds one kernel family's entry point for each shape of
// round: lanes of a multiple of eight coefficients (fwd, inv), lanes
// of one (fwdLast, the transform's last forward round; invFirst, its
// first inverse round) and the transform's last inverse round
// (invLast).
type family struct {
	fwd      func(view []uint64, roots []xmath.MulModOperand, p uint64, first, T int)
	fwdLast  func(view []uint64, roots []xmath.MulModOperand, p uint64, first int)
	inv      func(view []uint64, roots []xmath.MulModOperand, p uint64, first, t int)
	invFirst func(view []uint64, roots []xmath.MulModOperand, p uint64, first int)
	invLast  func(view []uint64, roots []xmath.MulModOperand, p uint64, first, t int, nInv, nInvRoot xmath.MulModOperand)
}

// families is indexed by the kernels value roundKernels returns;
// goLoops has no entry.
var families = [...]family{
	avx512Kernels:   {fwdRound8AVX512, fwdRound8LastAVX512, invRound8AVX512, invRound8FirstAVX512, invRound8LastAVX512},
	ifmaKernels:     {fwdRound8IFMA, fwdRound8LastIFMA, invRound8IFMA, invRound8FirstIFMA, invRound8LastIFMA},
	ifmaWideKernels: {fwdRound8IFMAWide, fwdRound8LastIFMAWide, invRound8IFMAWide, invRound8FirstIFMAWide, invRound8LastIFMAWide},
}

// fwdRound8Vector runs fwdRound8 on AVX-512 and returns the family
// that did: lanes of a multiple of eight coefficients go eight per
// instruction, lanes of one (T = 4, the last round) go two blocks at a
// time with the last-round reduction fused, and any other lane length
// or block count, or a CPU without AVX-512, is left to the Go loop
// (goLoops).
func fwdRound8Vector(view []uint64, tbl *Tables, first, T int) kernels {
	p := tbl.Modulus.Value
	k := roundKernels(p)
	nb := len(view) / (2 * T)
	switch {
	case k == goLoops:
	case T%32 == 0:
		families[k].fwd(view[:nb*2*T], tbl.Roots[:4*(first+nb)], p, first, T)
	case T == 4 && nb%4 == 0:
		families[k].fwdLast(view[:nb*8], laneRoots(tbl.Roots, tbl.N, first, nb), p, first)
	default:
		return goLoops
	}
	return k
}

// invRound8Vector is fwdRound8Vector for invRound8, whose lanes are t
// long: the transform's last round (first = 1) fuses the n^{-1}
// scaling, and its first (t = 1) goes two blocks at a time.
func invRound8Vector(view []uint64, tbl *Tables, first, t int) kernels {
	p := tbl.Modulus.Value
	k := roundKernels(p)
	nb := len(view) / (8 * t)
	switch {
	case k == goLoops:
	case t%8 == 0 && first == 1:
		families[k].invLast(view[:8*t], tbl.InvRoots[:8], p, first, t, tbl.NInv, tbl.nInvRoot)
	case t%8 == 0:
		families[k].inv(view[:nb*8*t], tbl.InvRoots[:4*(first+nb)], p, first, t)
	case t == 1 && nb%4 == 0:
		families[k].invFirst(view[:nb*8], laneRoots(tbl.InvRoots, tbl.N, first, nb), p, first)
	default:
		return goLoops
	}
	return k
}

// laneRoots bounds-checks the twiddles a …Last forward or …First
// inverse kernel reads for blocks [first, first+nb) of an n-point
// round: they must be the round's, i in [n/8, n/4), whose lanes it
// spreads from roots up to roots[4(first+nb)).
func laneRoots(roots []xmath.MulModOperand, n, first, nb int) []xmath.MulModOperand {
	if first < n/8 || first+nb > n/4 {
		panic("ntt: blocks outside the round")
	}
	return roots[:4*(first+nb)]
}

// The kernels take what the functions above have bounds-checked: view
// holds whole blocks (spans), roots reaches the last one's finest
// twiddle, the lanes are a multiple of eight long — or one, with a
// multiple of four blocks, for the …Last forward and …First inverse
// kernels; the …Last inverse kernels take the one span of the
// transform's last round. The …IFMA kernels also need a modulus below
// ifmaBound and NewTables' operands for it, the …IFMAWide kernels one
// below wideBound.

//go:noescape
func fwdRound8AVX512(view []uint64, roots []xmath.MulModOperand, p uint64, first, T int)

//go:noescape
func invRound8AVX512(view []uint64, roots []xmath.MulModOperand, p uint64, first, t int)

//go:noescape
func invRound8LastAVX512(view []uint64, roots []xmath.MulModOperand, p uint64, first, t int, nInv, nInvRoot xmath.MulModOperand)

//go:noescape
func fwdRound8LastAVX512(view []uint64, roots []xmath.MulModOperand, p uint64, first int)

//go:noescape
func invRound8FirstAVX512(view []uint64, roots []xmath.MulModOperand, p uint64, first int)

//go:noescape
func fwdRound8IFMA(view []uint64, roots []xmath.MulModOperand, p uint64, first, T int)

//go:noescape
func invRound8IFMA(view []uint64, roots []xmath.MulModOperand, p uint64, first, t int)

//go:noescape
func invRound8LastIFMA(view []uint64, roots []xmath.MulModOperand, p uint64, first, t int, nInv, nInvRoot xmath.MulModOperand)

//go:noescape
func fwdRound8LastIFMA(view []uint64, roots []xmath.MulModOperand, p uint64, first int)

//go:noescape
func invRound8FirstIFMA(view []uint64, roots []xmath.MulModOperand, p uint64, first int)

//go:noescape
func fwdRound8IFMAWide(view []uint64, roots []xmath.MulModOperand, p uint64, first, T int)

//go:noescape
func invRound8IFMAWide(view []uint64, roots []xmath.MulModOperand, p uint64, first, t int)

//go:noescape
func invRound8LastIFMAWide(view []uint64, roots []xmath.MulModOperand, p uint64, first, t int, nInv, nInvRoot xmath.MulModOperand)

//go:noescape
func fwdRound8LastIFMAWide(view []uint64, roots []xmath.MulModOperand, p uint64, first int)

//go:noescape
func invRound8FirstIFMAWide(view []uint64, roots []xmath.MulModOperand, p uint64, first int)
