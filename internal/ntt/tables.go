// Package ntt implements the negacyclic Number Theoretic Transform —
// the algorithm the paper identifies as >70% of HE evaluation time —
// in every variant studied in Section III-B:
//
//   - the host transforms Forward/Inverse, which run the high-radix
//     kernels' rounds on the CPU for the CKKS client (the serial
//     radix-2 oracle every variant is checked against is test code),
//   - the naive radix-2 GPU kernel (Fig. 6),
//   - the staged radix-2 GPU kernel with shared local memory and SIMD
//     subgroup shuffling, in the SIMD(8,8)/(16,8)/(32,8) register
//     blocking variants (Figs. 7–9),
//   - high-radix (4/8/16) register-blocked kernels with SLM staging and
//     fused last-round processing (Section III-B.5).
//
// All GPU variants execute real arithmetic through the simulator's
// functional layer and are bit-exact against the oracle; their
// analytic profiles use the per-round ALU op counts of Table I. On the
// host, the radix-8 rounds run on AVX-512 where the CPU has it
// (vector_amd64.s) — on AVX-512 IFMA under every modulus below 2^52,
// in two families split at 2^50 — and in Go elsewhere or under the
// purego build tag. Each round makes one pass over the row: the rounds
// whose blocks are eight coefficients run their three stages in
// registers, and the transform's last round fuses the last-round
// processing, as the GPU kernels do; the separate last-round passes
// are Go loops that follow only rounds run in Go. The transforms'
// outputs are the same bits on every path.
//
// Every variant runs as Engine batches of polys × moduli independent
// transforms sharing one kernel schedule. A batch is addressed either
// as one contiguous allocation (Forward/Inverse) or through a
// BatchView (ForwardView/InverseView) whose rows may live in arbitrary
// device buffers — the cross-job kernel fusion path, which lets the
// concurrent scheduler drive the NTTs of a whole coalesced job batch
// as single wider launches (see ARCHITECTURE.md at the repo root).
package ntt

import "xehe/internal/xmath"

// ifmaBound and wideBound split the moduli between the kernel
// families. Below ifmaBound a lazy value, under 4p, fits IFMA's 52-bit
// operands, and the IFMA kernels multiply it as it is. From ifmaBound
// to wideBound the IFMA-wide kernels first reduce it to [0, p), which
// fits, and form the product exactly from five 52-bit halves. At and
// above wideBound the 64-bit kernels take the modulus.
const (
	ifmaBound = 1 << 50
	wideBound = 1 << 52
)

// Tables holds the twiddle factors of one modulus for degree-N
// negacyclic NTTs: powers of the 2N-th primitive root ψ in
// bit-reversed ("scrambled") order, as in SEAL/HEXL, each paired with
// its Harvey precondition quotient.
//
// Under a modulus below ifmaBound every quotient (NInv's too) is in
// the 52-bit form of xmath.NewMulModOperand52, which the IFMA kernels
// read; above it, the 64-bit form of xmath.NewMulModOperand, whose
// quotient shifted right by 12 is the 52-bit one the IFMA-wide kernels
// read. The Go rounds, the generic loop and the IFMA and 64-bit kernel
// families read the same operands, so they agree round by round, bit
// for bit; the IFMA-wide kernels reduce a product's input first, so
// their lazy outputs agree with the others' modulo p, and their
// reduced outputs bit for bit.
type Tables struct {
	N       int
	LogN    int
	Modulus xmath.Modulus

	// Roots[m+i] is the twiddle of butterfly block i at stage with m
	// blocks: ψ^{brv(m+i, logN)} (forward, Cooley–Tukey order).
	Roots []xmath.MulModOperand
	// InvRoots are the inverse twiddles in Gentleman–Sande order.
	InvRoots []xmath.MulModOperand
	// NInv is n^{-1} mod p for the inverse transform's final scaling.
	NInv xmath.MulModOperand
	Psi  uint64 // the 2N-th root used (for tests/debug)

	// nInvRoot is InvRoots[1]·n^{-1}: the twiddle of the inverse
	// transform's last stage with the n^{-1} scaling folded in.
	nInvRoot xmath.MulModOperand
}

// NewTables precomputes twiddle tables for degree n (a power of two)
// under modulus m. It panics if n is not a power of two or if m has no
// primitive 2n-th root of unity (i.e. m ≢ 1 mod 2n).
func NewTables(n int, m xmath.Modulus) *Tables {
	if n < 2 || n&(n-1) != 0 {
		panic("ntt: degree must be a power of two >= 2")
	}
	if (m.Value-1)%uint64(2*n) != 0 {
		panic("ntt: modulus is not NTT-friendly for this degree")
	}
	logN := 0
	for 1<<logN < n {
		logN++
	}
	psi := xmath.MinimalPrimitiveRoot(uint64(2*n), m)
	psiInv := m.InvMod(psi)

	t := &Tables{N: n, LogN: logN, Modulus: m, Psi: psi}
	t.Roots = make([]xmath.MulModOperand, n)
	t.InvRoots = make([]xmath.MulModOperand, n)

	// Forward: Roots[j] = ψ^{brv(j, logN)}.
	pow := uint64(1)
	powers := make([]uint64, n)
	for i := 0; i < n; i++ {
		powers[i] = pow
		pow = m.MulMod(pow, psi)
	}
	for j := 0; j < n; j++ {
		t.Roots[j] = tableOperand(powers[xmath.ReverseBits(uint64(j), logN)], m)
	}

	// Inverse: InvRoots[j] = ψ^{-brv(j, logN)}, consumed by the GS loop
	// via index h+i with the scramble mirrored (see refInverse in
	// ref_test.go).
	pow = uint64(1)
	for i := 0; i < n; i++ {
		powers[i] = pow
		pow = m.MulMod(pow, psiInv)
	}
	for j := 0; j < n; j++ {
		t.InvRoots[j] = tableOperand(powers[xmath.ReverseBits(uint64(j), logN)], m)
	}

	nInv := m.InvMod(uint64(n))
	t.NInv = tableOperand(nInv, m)
	t.nInvRoot = tableOperand(m.MulMod(t.InvRoots[1].Operand, nInv), m)
	return t
}

// tableOperand is a Tables entry for w: in the 52-bit form under a
// modulus below ifmaBound, in the 64-bit form above it.
func tableOperand(w uint64, m xmath.Modulus) xmath.MulModOperand {
	if m.Value < ifmaBound {
		return xmath.NewMulModOperand52(w, m)
	}
	return xmath.NewMulModOperand(w, m)
}
