//go:build !purego

package ntt

import "xehe/internal/xmath"

// vectorRounds reports whether the radix-8 rounds and the finalize
// passes may run on AVX-512 (vector_amd64.s): xmath's one check of the
// CPU and the OS.
var vectorRounds = xmath.HasAVX512()

// fwdRound8Vector runs fwdRound8 on AVX-512 and reports whether it
// did: lanes of a multiple of eight coefficients go eight per
// instruction, lanes of one (T = 4) go eight blocks at a time
// transposed, and any other lane length, or a CPU without AVX-512, is
// left to the Go loop.
func fwdRound8Vector(view []uint64, roots []xmath.MulModOperand, p uint64, first, T int) bool {
	if !vectorRounds {
		return false
	}
	nb := len(view) / (2 * T)
	switch {
	case T%32 == 0:
		fwdRound8AVX512(view[:nb*2*T], roots[:4*(first+nb)], p, first, T)
	case T == 4 && nb%8 == 0:
		fwdRound8TransposedAVX512(view[:nb*8], roots[:4*(first+nb)], p, first)
	default:
		return false
	}
	return true
}

// invRound8Vector is fwdRound8Vector for invRound8, whose lanes are t
// long.
func invRound8Vector(view []uint64, roots []xmath.MulModOperand, p uint64, first, t int) bool {
	if !vectorRounds {
		return false
	}
	nb := len(view) / (8 * t)
	switch {
	case t%8 == 0:
		invRound8AVX512(view[:nb*8*t], roots[:4*(first+nb)], p, first, t)
	case t == 1 && nb%8 == 0:
		invRound8TransposedAVX512(view[:nb*8], roots[:4*(first+nb)], p, first)
	default:
		return false
	}
	return true
}

// finalizeForwardVector runs finalizeForward on AVX-512 over the
// longest prefix of x that is a multiple of eight long and returns the
// rest (all of x without AVX-512).
func finalizeForwardVector(x []uint64, p uint64) []uint64 {
	if !vectorRounds {
		return x
	}
	v := len(x) &^ 7
	finalizeForwardAVX512(x[:v], p)
	return x[v:]
}

// finalizeInverseVector is finalizeForwardVector for finalizeInverse.
func finalizeInverseVector(x []uint64, p uint64, nInv xmath.MulModOperand) []uint64 {
	if !vectorRounds {
		return x
	}
	v := len(x) &^ 7
	finalizeInverseAVX512(x[:v], p, nInv)
	return x[v:]
}

// The kernels take what the functions above have bounds-checked: view
// holds whole blocks (spans), roots reaches the last one's finest
// twiddle, the lanes are a multiple of eight long (one, with a
// multiple of eight blocks, for the Transposed kernels), and the
// finalize passes get a multiple of eight elements.

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
