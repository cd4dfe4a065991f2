//go:build !purego

package ntt

import "xehe/internal/xmath"

// vectorRounds reports whether the radix-8 rounds and the finalize
// passes may run on AVX-512 (vector_amd64.s): xmath's one check of the
// CPU and the OS.
var vectorRounds = xmath.HasAVX512()

// roundKernels picks the family that runs rounds and finalize passes
// under modulus p: the IFMA kernels below ifmaBound where the CPU has
// IFMA (NewTables stores those moduli's quotients in the 52-bit form
// they read), the 64-bit kernels otherwise, and none without AVX-512.
func roundKernels(p uint64) kernels {
	switch {
	case !vectorRounds:
		return goLoops
	case ifmaRounds && p < ifmaBound:
		return ifmaKernels
	}
	return avx512Kernels
}

// fwdRound8Vector runs fwdRound8 on AVX-512 and returns the family
// that did: lanes of a multiple of eight coefficients go eight per
// instruction, lanes of one (T = 4) go eight blocks at a time
// transposed, and any other lane length, or a CPU without AVX-512, is
// left to the Go loop (goLoops).
func fwdRound8Vector(view []uint64, roots []xmath.MulModOperand, p uint64, first, T int) kernels {
	k := roundKernels(p)
	nb := len(view) / (2 * T)
	switch {
	case k == goLoops:
	case T%32 == 0:
		view, roots = view[:nb*2*T], roots[:4*(first+nb)]
		if k == ifmaKernels {
			fwdRound8IFMA(view, roots, p, first, T)
		} else {
			fwdRound8AVX512(view, roots, p, first, T)
		}
	case T == 4 && nb%8 == 0:
		view, roots = view[:nb*8], roots[:4*(first+nb)]
		if k == ifmaKernels {
			fwdRound8TransposedIFMA(view, roots, p, first)
		} else {
			fwdRound8TransposedAVX512(view, roots, p, first)
		}
	default:
		return goLoops
	}
	return k
}

// invRound8Vector is fwdRound8Vector for invRound8, whose lanes are t
// long.
func invRound8Vector(view []uint64, roots []xmath.MulModOperand, p uint64, first, t int) kernels {
	k := roundKernels(p)
	nb := len(view) / (8 * t)
	switch {
	case k == goLoops:
	case t%8 == 0:
		view, roots = view[:nb*8*t], roots[:4*(first+nb)]
		if k == ifmaKernels {
			invRound8IFMA(view, roots, p, first, t)
		} else {
			invRound8AVX512(view, roots, p, first, t)
		}
	case t == 1 && nb%8 == 0:
		view, roots = view[:nb*8], roots[:4*(first+nb)]
		if k == ifmaKernels {
			invRound8TransposedIFMA(view, roots, p, first)
		} else {
			invRound8TransposedAVX512(view, roots, p, first)
		}
	default:
		return goLoops
	}
	return k
}

// finalizeForwardVector runs finalizeForward on AVX-512 over the
// longest prefix of x that is a multiple of eight long and returns the
// rest (all of x without AVX-512). It has no product, so one kernel
// serves both families.
func finalizeForwardVector(x []uint64, p uint64) []uint64 {
	if !vectorRounds {
		return x
	}
	v := len(x) &^ 7
	finalizeForwardAVX512(x[:v], p)
	return x[v:]
}

// finalizeInverseVector is finalizeForwardVector for finalizeInverse,
// on the family roundKernels picks.
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
// twiddle, the lanes are a multiple of eight long (one, with a
// multiple of eight blocks, for the Transposed kernels), and the
// finalize passes get a multiple of eight elements. The …IFMA kernels
// also need a modulus below ifmaBound and NewTables' operands for it.

//go:noescape
func fwdRound8AVX512(view []uint64, roots []xmath.MulModOperand, p uint64, first, T int)

//go:noescape
func invRound8AVX512(view []uint64, roots []xmath.MulModOperand, p uint64, first, t int)

//go:noescape
func fwdRound8TransposedAVX512(view []uint64, roots []xmath.MulModOperand, p uint64, first int)

//go:noescape
func invRound8TransposedAVX512(view []uint64, roots []xmath.MulModOperand, p uint64, first int)

//go:noescape
func finalizeForwardAVX512(x []uint64, p uint64)

//go:noescape
func finalizeInverseAVX512(x []uint64, p uint64, nInv xmath.MulModOperand)

//go:noescape
func fwdRound8IFMA(view []uint64, roots []xmath.MulModOperand, p uint64, first, T int)

//go:noescape
func invRound8IFMA(view []uint64, roots []xmath.MulModOperand, p uint64, first, t int)

//go:noescape
func fwdRound8TransposedIFMA(view []uint64, roots []xmath.MulModOperand, p uint64, first int)

//go:noescape
func invRound8TransposedIFMA(view []uint64, roots []xmath.MulModOperand, p uint64, first int)

//go:noescape
func finalizeInverseIFMA(x []uint64, p uint64, nInv xmath.MulModOperand)
