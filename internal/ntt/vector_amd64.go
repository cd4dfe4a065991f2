//go:build !purego

package ntt

import "xehe/internal/xmath"

// vectorRounds reports whether the radix-8 rounds and the finalize
// passes may run on AVX-512 (vector_amd64.s): xmath's one check of the
// CPU and the OS.
var vectorRounds = xmath.HasAVX512()

// roundKernels picks the family that runs rounds and finalize passes
// under modulus p where the CPU has IFMA: the IFMA kernels below
// ifmaBound (NewTables stores those moduli's quotients in the 52-bit
// form they read), the IFMA-wide kernels below wideBound; the 64-bit
// kernels above, or without IFMA; none without AVX-512.
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
		view, roots := view[:nb*2*T], tbl.Roots[:4*(first+nb)]
		switch k {
		case ifmaKernels:
			fwdRound8IFMA(view, roots, p, first, T)
		case ifmaWideKernels:
			fwdRound8IFMAWide(view, roots, p, first, T)
		default:
			fwdRound8AVX512(view, roots, p, first, T)
		}
	case T == 4 && nb%4 == 0:
		view, roots := view[:nb*8], laneRoots(tbl.Roots, tbl.N, first, nb)
		switch k {
		case ifmaKernels:
			fwdRound8LastIFMA(view, roots, p, first)
		case ifmaWideKernels:
			fwdRound8LastIFMAWide(view, roots, p, first)
		default:
			fwdRound8LastAVX512(view, roots, p, first)
		}
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
		view, roots := view[:8*t], tbl.InvRoots[:8]
		switch k {
		case ifmaKernels:
			invRound8LastIFMA(view, roots, p, first, t, tbl.NInv, tbl.nInvRoot)
		case ifmaWideKernels:
			invRound8LastIFMAWide(view, roots, p, first, t, tbl.NInv, tbl.nInvRoot)
		default:
			invRound8LastAVX512(view, roots, p, first, t, tbl.NInv, tbl.nInvRoot)
		}
	case t%8 == 0:
		view, roots := view[:nb*8*t], tbl.InvRoots[:4*(first+nb)]
		switch k {
		case ifmaKernels:
			invRound8IFMA(view, roots, p, first, t)
		case ifmaWideKernels:
			invRound8IFMAWide(view, roots, p, first, t)
		default:
			invRound8AVX512(view, roots, p, first, t)
		}
	case t == 1 && nb%4 == 0:
		view, roots := view[:nb*8], laneRoots(tbl.InvRoots, tbl.N, first, nb)
		switch k {
		case ifmaKernels:
			invRound8FirstIFMA(view, roots, p, first)
		case ifmaWideKernels:
			invRound8FirstIFMAWide(view, roots, p, first)
		default:
			invRound8FirstAVX512(view, roots, p, first)
		}
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

// finalizeForwardVector runs finalizeForward on AVX-512 over the
// longest prefix of x that is a multiple of eight long and returns the
// rest (all of x without AVX-512). It has no product, so one kernel
// serves every family.
func finalizeForwardVector(x []uint64, p uint64) []uint64 {
	if !vectorRounds {
		return x
	}
	v := len(x) &^ 7
	finalizeForwardAVX512(x[:v], p)
	return x[v:]
}

// finalizeInverseVector is finalizeForwardVector for finalizeInverse:
// on the IFMA kernels below ifmaBound, on the 64-bit ones above (whose
// operands NewTables builds there). The transforms fuse this pass into
// a radix-8 last round, so it runs alone only after the other rounds,
// and the IFMA-wide family has no kernel for it.
func finalizeInverseVector(x []uint64, p uint64, nInv xmath.MulModOperand) []uint64 {
	k := roundKernels(p)
	if k == goLoops {
		return x
	}
	v := len(x) &^ 7
	if k == ifmaKernels {
		finalizeInverseIFMA(x[:v], p, nInv)
	} else {
		finalizeInverseAVX512(x[:v], p, nInv)
	}
	return x[v:]
}

// The kernels take what the functions above have bounds-checked: view
// holds whole blocks (spans), roots reaches the last one's finest
// twiddle, the lanes are a multiple of eight long — or one, with a
// multiple of four blocks, for the …Last forward and …First inverse
// kernels; the …Last inverse kernels
// take the one span of the transform's last round — and the finalize
// passes get a multiple of eight elements. The …IFMA kernels also need
// a modulus below ifmaBound and NewTables' operands for it, the
// …IFMAWide kernels one below wideBound.

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
func finalizeForwardAVX512(x []uint64, p uint64)

//go:noescape
func finalizeInverseAVX512(x []uint64, p uint64, nInv xmath.MulModOperand)

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
func finalizeInverseIFMA(x []uint64, p uint64, nInv xmath.MulModOperand)

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
