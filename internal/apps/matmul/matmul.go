// Package matmul implements the paper's application-level benchmark
// (Section IV-E): encrypted element-wise polynomial matrix
// multiplication C += A·B, where every matrix element is a degree-1
// CKKS ciphertext over an 8K-coefficient polynomial ring and each
// element-wise product is a full polynomial multiplication.
//
// Elements are stored in coefficient form (as serialized ciphertexts
// are), so each product transforms its operands on the GPU, multiplies
// dyadically with fused accumulation into a degree-2 accumulator, and
// the finished outputs are transformed back — making the application
// NTT-dominated, allocation-heavy, and therefore sensitive to all
// three optimization steps of Fig. 19 (mad_mod, inline asm, memory
// cache).
package matmul

import (
	"strconv"

	"xehe/internal/ckks"
	"xehe/internal/core"
)

// Workload describes one matMul_mxnxk benchmark instance: C is m×n,
// A is m×k, B is k×n.
type Workload struct {
	M, N, K int
}

// String formats the workload like the paper ("matMul_100x10x1").
func (w Workload) String() string {
	return "matMul_" + strconv.Itoa(w.M) + "x" + strconv.Itoa(w.N) + "x" + strconv.Itoa(w.K)
}

// PaperWorkloads are the two instances of Fig. 19.
func PaperWorkloads() []Workload {
	return []Workload{{M: 100, N: 10, K: 1}, {M: 10, N: 9, K: 8}}
}

// Run executes C += A·B on the device and returns the output matrix
// (device ciphertexts in coefficient form). A and B are matrices of
// host ciphertexts in coefficient form; Run uploads them, performs
// m×n×k element products, and converts the outputs back.
//
// Every temporary goes through the context's memory cache, so the
// allocation overhead the cache removes (Fig. 11) is on the critical
// path exactly as in the paper's baseline.
func Run(ctx *core.Context, A, B [][]*ckks.Ciphertext, w Workload) [][]*core.Ciphertext {
	level := A[0][0].Level
	scale := A[0][0].Scale * B[0][0].Scale

	// Upload operands (kept in coefficient form).
	devA := make([][]*core.Ciphertext, w.M)
	for i := range devA {
		devA[i] = make([]*core.Ciphertext, w.K)
		for l := range devA[i] {
			devA[i][l] = ctx.UploadCoeff(A[i][l])
		}
	}
	devB := make([][]*core.Ciphertext, w.K)
	for l := range devB {
		devB[l] = make([]*core.Ciphertext, w.N)
		for j := range devB[l] {
			devB[l][j] = ctx.UploadCoeff(B[l][j])
		}
	}

	C := make([][]*core.Ciphertext, w.M)
	for i := 0; i < w.M; i++ {
		C[i] = make([]*core.Ciphertext, w.N)
		for j := 0; j < w.N; j++ {
			acc := ctx.NewZeroCt(2, level, scale, true)
			for l := 0; l < w.K; l++ {
				// Transform fresh copies of the operands (the baseline
				// application does not cache transforms, matching the
				// per-product allocation pattern of Fig. 19).
				ta := ctx.CloneCt(devA[i][l])
				tb := ctx.CloneCt(devB[l][j])
				ctx.FwdNTTCt(ta)
				ctx.FwdNTTCt(tb)
				ctx.MulAcc(acc, ta, tb)
				ctx.Free(ta)
				ctx.Free(tb)
			}
			ctx.InvNTTCt(acc)
			C[i][j] = acc
		}
	}

	// Release the inputs.
	for i := range devA {
		for _, ct := range devA[i] {
			ctx.Free(ct)
		}
	}
	for l := range devB {
		for _, ct := range devB[l] {
			ctx.Free(ct)
		}
	}
	return C
}
