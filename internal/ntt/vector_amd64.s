//go:build !purego

#include "textflag.h"

// AVX-512 radix-8 rounds and finalize passes. Each ZMM register holds
// one lane of eight consecutive coefficients, so one instruction does
// the work of eight Go butterflies on the same values: the results are
// those of fwdRound8Go / invRound8Go, bit for bit.
//
// The kernels come in two families that share their loop bodies (the
// …_BODY macros) and differ only in how they form the lazy product
// W·y: MULLAZY, QSHIFT, WBCST, WREG and CONSTS are defined for the
// 64-bit kernels (…AVX512: AVX-512F + DQ, any modulus the rounds take)
// above their TEXT blocks and redefined for the IFMA kernels (…IFMA:
// AVX-512 IFMA, moduli below 2^50, whose tables hold 52-bit quotients;
// see ntt.Tables) above theirs.
//
// Register use in the rounds:
//   Z0–Z7    the eight lanes a0…a7 of a block
//   Z8–Z14   the block's seven twiddle quotients W' (broadcast)
//   Z15–Z21  W' >> QSHIFT: its high half (64-bit kernels) or the
//            52-bit quotient W' >> 12 (IFMA kernels)
//   Z22      p        Z23  2p
//   Z24      0xffffffff (64-bit) or 2^52 − 1 (IFMA) in every lane
//   Z25–Z30  scratch  Z31  −p (IFMA)
// The twiddles W themselves are read by WBCST as embedded broadcasts
// from the table: R8 points at roots[i], R9 at roots[2i], R10 at
// roots[4i] (an operand is 16 bytes: W, then W').

// FWD is xmath.HarveyButterfly: X = min(X, X−2p); T = W·Y lazy;
// (X, Y) = (X + T, X + 2p − T). MULW is the multiply by W without its
// last two operands: WBCST from the table, or WREG from a register of
// per-lane twiddles.
#define FWD(X, Y, Q, QH, MULW) \
	VPSUBQ  Z23, X, Z25; \
	VPMINUQ Z25, X, X; \
	MULLAZY(Y, Q, QH, MULW, Y); \
	VPADDQ  Z23, X, Z25; \
	VPADDQ  Y, X, X; \
	VPSUBQ  Y, Z25, Y

// INV is xmath.GSButterfly: (X, Y) = (min(S, S−2p) with S = X + Y,
// W·(X + 2p − Y) lazy).
#define INV(X, Y, Q, QH, MULW) \
	VPADDQ  Z23, X, Z30; \
	VPSUBQ  Y, Z30, Z30; \
	VPADDQ  Y, X, X; \
	VPSUBQ  Z23, X, Z25; \
	VPMINUQ Z25, X, X; \
	MULLAZY(Z30, Q, QH, MULW, Y)

// TWIDDLE broadcasts the quotient of the operand at MEM into Q and
// Q >> QSHIFT into QH.
#define TWIDDLE(MEM, Q, QH) \
	VPBROADCASTQ MEM, Q; \
	VPSRLQ       QSHIFT, Q, QH

// LOAD8 / STORE8 move the eight lanes of one column: lanes 0–3 at DI,
// lanes 4–7 at SI = DI + 4 lanes; BX is the lane length in bytes and
// R11 three lanes.
#define LOAD8 \
	VMOVDQU64 (DI), Z0; \
	VMOVDQU64 (DI)(BX*1), Z1; \
	VMOVDQU64 (DI)(BX*2), Z2; \
	VMOVDQU64 (DI)(R11*1), Z3; \
	VMOVDQU64 (SI), Z4; \
	VMOVDQU64 (SI)(BX*1), Z5; \
	VMOVDQU64 (SI)(BX*2), Z6; \
	VMOVDQU64 (SI)(R11*1), Z7

#define STORE8 \
	VMOVDQU64 Z0, (DI); \
	VMOVDQU64 Z1, (DI)(BX*1); \
	VMOVDQU64 Z2, (DI)(BX*2); \
	VMOVDQU64 Z3, (DI)(R11*1); \
	VMOVDQU64 Z4, (SI); \
	VMOVDQU64 Z5, (SI)(BX*1); \
	VMOVDQU64 Z6, (SI)(BX*2); \
	VMOVDQU64 Z7, (SI)(R11*1)

// TWIDDLE_PTRS sets R8, R9, R10 to &roots[first], &roots[2·first],
// &roots[4·first].
#define TWIDDLE_PTRS \
	MOVQ roots_base+24(FP), R8; \
	MOVQ first+56(FP), AX; \
	SHLQ $4, AX; \
	LEAQ (R8)(AX*4), R10; \
	LEAQ (R8)(AX*2), R9; \
	ADDQ AX, R8

// FWD_BODY is the forward round over lanes of T/4, T a multiple of 32
// (func(view []uint64, roots []xmath.MulModOperand, p uint64, first,
// T int)). A block is 2T elements in eight lanes of T/4: the lane
// length in bytes is 2T, the same number as the block length in
// elements. After a column loop DI has walked one lane; the next block
// starts seven lanes on.
#define FWD_BODY \
	MOVQ view_base+0(FP), DI; \
	MOVQ view_len+8(FP), DX; \
	TWIDDLE_PTRS; \
	CONSTS(p+48(FP)); \
	MOVQ T+64(FP), BX; \
	SHLQ $1, BX; \
	LEAQ (BX)(BX*2), R11; \
fwdBlock: \
	CMPQ DX, BX; \
	JB   fwdDone; \
	SUBQ BX, DX; \
	TWIDDLE(8(R8), Z8, Z15); \
	TWIDDLE(8(R9), Z9, Z16); \
	TWIDDLE(24(R9), Z10, Z17); \
	TWIDDLE(8(R10), Z11, Z18); \
	TWIDDLE(24(R10), Z12, Z19); \
	TWIDDLE(40(R10), Z13, Z20); \
	TWIDDLE(56(R10), Z14, Z21); \
	LEAQ (DI)(BX*4), SI; \
	MOVQ BX, CX; \
	SHRQ $6, CX; \
fwdColumn: \
	LOAD8; \
	FWD(Z0, Z4, Z8, Z15, WBCST 0(R8)); \
	FWD(Z1, Z5, Z8, Z15, WBCST 0(R8)); \
	FWD(Z2, Z6, Z8, Z15, WBCST 0(R8)); \
	FWD(Z3, Z7, Z8, Z15, WBCST 0(R8)); \
	FWD(Z0, Z2, Z9, Z16, WBCST 0(R9)); \
	FWD(Z1, Z3, Z9, Z16, WBCST 0(R9)); \
	FWD(Z4, Z6, Z10, Z17, WBCST 16(R9)); \
	FWD(Z5, Z7, Z10, Z17, WBCST 16(R9)); \
	FWD(Z0, Z1, Z11, Z18, WBCST 0(R10)); \
	FWD(Z2, Z3, Z12, Z19, WBCST 16(R10)); \
	FWD(Z4, Z5, Z13, Z20, WBCST 32(R10)); \
	FWD(Z6, Z7, Z14, Z21, WBCST 48(R10)); \
	STORE8; \
	ADDQ $64, DI; \
	ADDQ $64, SI; \
	DECQ CX; \
	JNZ  fwdColumn; \
	LEAQ (DI)(R11*2), DI; \
	ADDQ BX, DI; \
	ADDQ $16, R8; \
	ADDQ $32, R9; \
	ADDQ $64, R10; \
	JMP  fwdBlock; \
fwdDone: \
	VZEROUPPER; \
	RET

// INV_BODY is the inverse round over lanes of t, t a multiple of 8
// (func(view []uint64, roots []xmath.MulModOperand, p uint64, first,
// t int)). A span is 8t elements in eight lanes of t: the lane length
// in bytes is 8t, the same number as the span length in elements.
#define INV_BODY \
	MOVQ view_base+0(FP), DI; \
	MOVQ view_len+8(FP), DX; \
	TWIDDLE_PTRS; \
	CONSTS(p+48(FP)); \
	MOVQ t+64(FP), BX; \
	SHLQ $3, BX; \
	LEAQ (BX)(BX*2), R11; \
invSpan: \
	CMPQ DX, BX; \
	JB   invDone; \
	SUBQ BX, DX; \
	TWIDDLE(8(R10), Z8, Z15); \
	TWIDDLE(24(R10), Z9, Z16); \
	TWIDDLE(40(R10), Z10, Z17); \
	TWIDDLE(56(R10), Z11, Z18); \
	TWIDDLE(8(R9), Z12, Z19); \
	TWIDDLE(24(R9), Z13, Z20); \
	TWIDDLE(8(R8), Z14, Z21); \
	LEAQ (DI)(BX*4), SI; \
	MOVQ BX, CX; \
	SHRQ $6, CX; \
invColumn: \
	LOAD8; \
	INV(Z0, Z1, Z8, Z15, WBCST 0(R10)); \
	INV(Z2, Z3, Z9, Z16, WBCST 16(R10)); \
	INV(Z4, Z5, Z10, Z17, WBCST 32(R10)); \
	INV(Z6, Z7, Z11, Z18, WBCST 48(R10)); \
	INV(Z0, Z2, Z12, Z19, WBCST 0(R9)); \
	INV(Z1, Z3, Z12, Z19, WBCST 0(R9)); \
	INV(Z4, Z6, Z13, Z20, WBCST 16(R9)); \
	INV(Z5, Z7, Z13, Z20, WBCST 16(R9)); \
	INV(Z0, Z4, Z14, Z21, WBCST 0(R8)); \
	INV(Z1, Z5, Z14, Z21, WBCST 0(R8)); \
	INV(Z2, Z6, Z14, Z21, WBCST 0(R8)); \
	INV(Z3, Z7, Z14, Z21, WBCST 0(R8)); \
	STORE8; \
	ADDQ $64, DI; \
	ADDQ $64, SI; \
	DECQ CX; \
	JNZ  invColumn; \
	LEAQ (DI)(R11*2), DI; \
	ADDQ BX, DI; \
	ADDQ $16, R8; \
	ADDQ $32, R9; \
	ADDQ $64, R10; \
	JMP  invSpan; \
invDone: \
	VZEROUPPER; \
	RET

// The rounds whose lanes are one element long — forward T = 4, inverse
// t = 1, where a block is eight consecutive coefficients — take eight
// blocks at a time and transpose them, so that Z0–Z7 again hold a0…a7,
// now one block per vector lane. Their twiddles differ per lane: they
// are split out of the table's (W, W') pairs with VPERMT2Q, using the
// even and odd qword indices kept in Z16 and Z17.

DATA evenQwords<>+0(SB)/8, $0
DATA evenQwords<>+8(SB)/8, $2
DATA evenQwords<>+16(SB)/8, $4
DATA evenQwords<>+24(SB)/8, $6
DATA evenQwords<>+32(SB)/8, $8
DATA evenQwords<>+40(SB)/8, $10
DATA evenQwords<>+48(SB)/8, $12
DATA evenQwords<>+56(SB)/8, $14
GLOBL evenQwords<>(SB), RODATA|NOPTR, $64

DATA oddQwords<>+0(SB)/8, $1
DATA oddQwords<>+8(SB)/8, $3
DATA oddQwords<>+16(SB)/8, $5
DATA oddQwords<>+24(SB)/8, $7
DATA oddQwords<>+32(SB)/8, $9
DATA oddQwords<>+40(SB)/8, $11
DATA oddQwords<>+48(SB)/8, $13
DATA oddQwords<>+56(SB)/8, $15
GLOBL oddQwords<>(SB), RODATA|NOPTR, $64

// SPLIT sets E to the even qwords of A:B and A to the odd ones.
#define SPLIT(A, B, E) \
	VMOVDQA64 A, E; \
	VPERMT2Q  B, Z16, E; \
	VPERMT2Q  B, Z17, A

// SPLITM sets E and O to the even and odd qwords of the 128 bytes at
// MEM: the operands and the quotients of eight table entries.
#define SPLITM(MEM, MEMHI, E, O) \
	VMOVDQU64 MEM, E; \
	VMOVDQU64 MEM, O; \
	VPERMT2Q  MEMHI, Z16, E; \
	VPERMT2Q  MEMHI, Z17, O

// TRANSPOSE8 transposes the 8×8 qword matrix in rows R0…R7 into
// T0…T7, using R0…R7 as scratch.
#define TRANSPOSE8(R0, R1, R2, R3, R4, R5, R6, R7, T0, T1, T2, T3, T4, T5, T6, T7) \
	VPUNPCKLQDQ R1, R0, T0; \
	VPUNPCKHQDQ R1, R0, T1; \
	VPUNPCKLQDQ R3, R2, T2; \
	VPUNPCKHQDQ R3, R2, T3; \
	VPUNPCKLQDQ R5, R4, T4; \
	VPUNPCKHQDQ R5, R4, T5; \
	VPUNPCKLQDQ R7, R6, T6; \
	VPUNPCKHQDQ R7, R6, T7; \
	VSHUFI64X2  $0x88, T2, T0, R0; \
	VSHUFI64X2  $0x88, T3, T1, R1; \
	VSHUFI64X2  $0xdd, T2, T0, R2; \
	VSHUFI64X2  $0xdd, T3, T1, R3; \
	VSHUFI64X2  $0x88, T6, T4, R4; \
	VSHUFI64X2  $0x88, T7, T5, R5; \
	VSHUFI64X2  $0xdd, T6, T4, R6; \
	VSHUFI64X2  $0xdd, T7, T5, R7; \
	VSHUFI64X2  $0x88, R4, R0, T0; \
	VSHUFI64X2  $0x88, R5, R1, T1; \
	VSHUFI64X2  $0x88, R6, R2, T2; \
	VSHUFI64X2  $0x88, R7, R3, T3; \
	VSHUFI64X2  $0xdd, R4, R0, T4; \
	VSHUFI64X2  $0xdd, R5, R1, T5; \
	VSHUFI64X2  $0xdd, R6, R2, T6; \
	VSHUFI64X2  $0xdd, R7, R3, T7

// LOADT / STORET move eight blocks of eight at DI, transposed: after
// LOADT, Z0–Z7 hold a0…a7 with block b in lane b; STORET writes them
// back the same way.
#define LOADT \
	VMOVDQU64 0(DI), Z8; \
	VMOVDQU64 64(DI), Z9; \
	VMOVDQU64 128(DI), Z10; \
	VMOVDQU64 192(DI), Z11; \
	VMOVDQU64 256(DI), Z12; \
	VMOVDQU64 320(DI), Z13; \
	VMOVDQU64 384(DI), Z14; \
	VMOVDQU64 448(DI), Z15; \
	TRANSPOSE8(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)

#define STORET \
	TRANSPOSE8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15); \
	VMOVDQU64 Z8, 0(DI); \
	VMOVDQU64 Z9, 64(DI); \
	VMOVDQU64 Z10, 128(DI); \
	VMOVDQU64 Z11, 192(DI); \
	VMOVDQU64 Z12, 256(DI); \
	VMOVDQU64 Z13, 320(DI); \
	VMOVDQU64 Z14, 384(DI); \
	VMOVDQU64 Z15, 448(DI)

// TW1 splits the eight blocks' one twiddle at R8:
// W = Z8, W' = Z9, W' >> QSHIFT = Z10.
#define TW1 \
	SPLITM(0(R8), 64(R8), Z8, Z9); \
	VPSRLQ QSHIFT, Z9, Z10

// TW2 splits the eight blocks' two twiddles at R9: the first is
// (Z12, Z13, Z14), the second (Z8, Z9, Z10).
#define TW2 \
	SPLITM(0(R9), 64(R9), Z8, Z9); \
	SPLITM(128(R9), 192(R9), Z10, Z11); \
	SPLIT(Z8, Z10, Z12); \
	SPLIT(Z9, Z11, Z13); \
	VPSRLQ QSHIFT, Z13, Z14; \
	VPSRLQ QSHIFT, Z9, Z10

// TW4 splits the eight blocks' four twiddles at R10: the first is
// (Z10, Z11, Z12), then (Z14, Z15, Z13), (Z18, Z19, Z20) and
// (Z8, Z9, Z21).
#define TW4 \
	SPLITM(0(R10), 64(R10), Z8, Z9); \
	SPLITM(128(R10), 192(R10), Z10, Z11); \
	SPLITM(256(R10), 320(R10), Z12, Z13); \
	SPLITM(384(R10), 448(R10), Z14, Z15); \
	SPLIT(Z8, Z10, Z18); \
	SPLIT(Z12, Z14, Z19); \
	SPLIT(Z18, Z19, Z10); \
	SPLIT(Z8, Z12, Z14); \
	SPLIT(Z9, Z11, Z19); \
	SPLIT(Z13, Z15, Z12); \
	SPLIT(Z19, Z12, Z11); \
	SPLIT(Z9, Z13, Z15); \
	VPSRLQ QSHIFT, Z11, Z12; \
	VPSRLQ QSHIFT, Z15, Z13; \
	VPSRLQ QSHIFT, Z19, Z20; \
	VPSRLQ QSHIFT, Z9, Z21

// TRANSPOSED_SETUP loads the view, the twiddle pointers, the constants
// and the split indices, and sets CX to the number of eight-block
// groups.
#define TRANSPOSED_SETUP \
	MOVQ      view_base+0(FP), DI; \
	MOVQ      view_len+8(FP), CX; \
	TWIDDLE_PTRS; \
	CONSTS(p+48(FP)); \
	VMOVDQU64 evenQwords<>(SB), Z16; \
	VMOVDQU64 oddQwords<>(SB), Z17; \
	SHRQ      $6, CX

// TRANSPOSED_NEXT steps to the next eight blocks and loops to LOOP.
#define TRANSPOSED_NEXT(LOOP) \
	STORET; \
	ADDQ $512, DI; \
	ADDQ $128, R8; \
	ADDQ $256, R9; \
	ADDQ $512, R10; \
	DECQ CX; \
	JNZ  LOOP

// FWDT_BODY is the forward round at T = 4 (func(view []uint64, roots
// []xmath.MulModOperand, p uint64, first int)).
#define FWDT_BODY \
	TRANSPOSED_SETUP; \
	JZ fwdtDone; \
fwdtGroup: \
	LOADT; \
	TW1; \
	FWD(Z0, Z4, Z9, Z10, WREG Z8); \
	FWD(Z1, Z5, Z9, Z10, WREG Z8); \
	FWD(Z2, Z6, Z9, Z10, WREG Z8); \
	FWD(Z3, Z7, Z9, Z10, WREG Z8); \
	TW2; \
	FWD(Z0, Z2, Z13, Z14, WREG Z12); \
	FWD(Z1, Z3, Z13, Z14, WREG Z12); \
	FWD(Z4, Z6, Z9, Z10, WREG Z8); \
	FWD(Z5, Z7, Z9, Z10, WREG Z8); \
	TW4; \
	FWD(Z0, Z1, Z11, Z12, WREG Z10); \
	FWD(Z2, Z3, Z15, Z13, WREG Z14); \
	FWD(Z4, Z5, Z19, Z20, WREG Z18); \
	FWD(Z6, Z7, Z9, Z21, WREG Z8); \
	TRANSPOSED_NEXT(fwdtGroup); \
fwdtDone: \
	VZEROUPPER; \
	RET

// INVT_BODY is the inverse round at t = 1, FWDT_BODY's mirror image.
#define INVT_BODY \
	TRANSPOSED_SETUP; \
	JZ invtDone; \
invtGroup: \
	LOADT; \
	TW4; \
	INV(Z0, Z1, Z11, Z12, WREG Z10); \
	INV(Z2, Z3, Z15, Z13, WREG Z14); \
	INV(Z4, Z5, Z19, Z20, WREG Z18); \
	INV(Z6, Z7, Z9, Z21, WREG Z8); \
	TW2; \
	INV(Z0, Z2, Z13, Z14, WREG Z12); \
	INV(Z1, Z3, Z13, Z14, WREG Z12); \
	INV(Z4, Z6, Z9, Z10, WREG Z8); \
	INV(Z5, Z7, Z9, Z10, WREG Z8); \
	TW1; \
	INV(Z0, Z4, Z9, Z10, WREG Z8); \
	INV(Z1, Z5, Z9, Z10, WREG Z8); \
	INV(Z2, Z6, Z9, Z10, WREG Z8); \
	INV(Z3, Z7, Z9, Z10, WREG Z8); \
	TRANSPOSED_NEXT(invtGroup); \
invtDone: \
	VZEROUPPER; \
	RET

// FINALIZE_INVERSE_BODY scales by n^{-1} and reduces to [0, p)
// (func(x []uint64, p uint64, nInv xmath.MulModOperand)).
#define FINALIZE_INVERSE_BODY \
	MOVQ x_base+0(FP), DI; \
	MOVQ x_len+8(FP), CX; \
	CONSTS(p+24(FP)); \
	TWIDDLE(nInv_Quotient+40(FP), Z8, Z15); \
	LEAQ nInv_Operand+32(FP), R8; \
	SHRQ $3, CX; \
	JZ   fiDone; \
fiLoop: \
	VMOVDQU64 (DI), Z0; \
	MULLAZY(Z0, Z8, Z15, WBCST 0(R8), Z0); \
	VPSUBQ    Z22, Z0, Z1; \
	VPMINUQ   Z1, Z0, Z0; \
	VMOVDQU64 Z0, (DI); \
	ADDQ      $64, DI; \
	DECQ      CX; \
	JNZ       fiLoop; \
fiDone: \
	VZEROUPPER; \
	RET

// The 64-bit kernels. MULLAZY sets OUT = IN·W − hi64(IN·W')·p mod
// 2^64, Harvey's lazy product in [0, 2p) (xmath.MulModOperand.
// MulModLazy). hi64 is exact, built from the four 32×32 products: with
// t = hi32(ll) + lh and u = lo32(t) + hl, hi64 = hh + hi32(t) +
// hi32(u). IN may be OUT.
#define MULLAZY(IN, Q, QH, MULW, OUT) \
	VPSRLQ   $32, IN, Z26; \
	VPMULUDQ IN, Q, Z27; \
	VPMULUDQ IN, QH, Z28; \
	VPMULUDQ Z26, Q, Z29; \
	VPMULUDQ Z26, QH, Z26; \
	VPSRLQ   $32, Z27, Z27; \
	VPADDQ   Z27, Z28, Z28; \
	VPANDQ   Z24, Z28, Z27; \
	VPADDQ   Z27, Z29, Z29; \
	VPSRLQ   $32, Z28, Z28; \
	VPSRLQ   $32, Z29, Z29; \
	VPADDQ   Z28, Z26, Z26; \
	VPADDQ   Z29, Z26, Z26; \
	MULW, IN, OUT; \
	VPMULLQ  Z22, Z26, Z26; \
	VPSUBQ   Z26, OUT, OUT

#define QSHIFT $32
#define WBCST VPMULLQ.BCST
#define WREG VPMULLQ

// CONSTS loads p, 2p and the low-half mask.
#define CONSTS(PARG) \
	VPBROADCASTQ PARG, Z22; \
	VPADDQ       Z22, Z22, Z23; \
	MOVQ         $0xffffffff, AX; \
	VPBROADCASTQ AX, Z24

// func fwdRound8AVX512(view []uint64, roots []xmath.MulModOperand, p uint64, first, T int)
TEXT ·fwdRound8AVX512(SB), NOSPLIT, $0-72
	FWD_BODY

// func invRound8AVX512(view []uint64, roots []xmath.MulModOperand, p uint64, first, t int)
TEXT ·invRound8AVX512(SB), NOSPLIT, $0-72
	INV_BODY

// func fwdRound8TransposedAVX512(view []uint64, roots []xmath.MulModOperand, p uint64, first int)
TEXT ·fwdRound8TransposedAVX512(SB), NOSPLIT, $0-64
	FWDT_BODY

// func invRound8TransposedAVX512(view []uint64, roots []xmath.MulModOperand, p uint64, first int)
TEXT ·invRound8TransposedAVX512(SB), NOSPLIT, $0-64
	INVT_BODY

// func finalizeInverseAVX512(x []uint64, p uint64, nInv xmath.MulModOperand)
TEXT ·finalizeInverseAVX512(SB), NOSPLIT, $0-48
	FINALIZE_INVERSE_BODY

// func finalizeForwardAVX512(x []uint64, p uint64)
TEXT ·finalizeForwardAVX512(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	CONSTS(p+24(FP))
	SHRQ $3, CX
	JZ   ffDone

ffLoop:
	VMOVDQU64 (DI), Z0
	VPSUBQ    Z23, Z0, Z1
	VPMINUQ   Z1, Z0, Z0
	VPSUBQ    Z22, Z0, Z1
	VPMINUQ   Z1, Z0, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ      $64, DI
	DECQ      CX
	JNZ       ffLoop

ffDone:
	VZEROUPPER
	RET

#undef MULLAZY
#undef QSHIFT
#undef WBCST
#undef WREG
#undef CONSTS

// The IFMA kernels, for moduli below 2^50: every input is below 4p <
// 2^52, and the table's quotients are floor(W·2^52/p)·2^12
// (xmath.NewMulModOperand52), so W' >> 12 is the 52-bit quotient.
// MULLAZY sets OUT = IN·W − hi52(IN·(W' >> 12))·p mod 2^52: the
// quotient from VPMADD52HUQ, the low words of both products from
// VPMADD52LUQ (the second multiplies by −p and adds), then the 52-bit
// mask. The result is below 2p < 2^52, so it is xmath.MulModOperand.
// MulModLazy's bit for bit. IN may be OUT.
#define MULLAZY(IN, Q, QH, MULW, OUT) \
	VPXORQ      Z26, Z26, Z26; \
	VPMADD52HUQ QH, IN, Z26; \
	VPXORQ      Z27, Z27, Z27; \
	MULW, IN, Z27; \
	VPMADD52LUQ Z31, Z26, Z27; \
	VPANDQ      Z24, Z27, OUT

#define QSHIFT $12
#define WBCST VPMADD52LUQ.BCST
#define WREG VPMADD52LUQ

// CONSTS loads p, 2p, the 52-bit mask and −p.
#define CONSTS(PARG) \
	VPBROADCASTQ PARG, Z22; \
	VPADDQ       Z22, Z22, Z23; \
	VPXORQ       Z31, Z31, Z31; \
	VPSUBQ       Z22, Z31, Z31; \
	MOVQ         $0xfffffffffffff, AX; \
	VPBROADCASTQ AX, Z24

// func fwdRound8IFMA(view []uint64, roots []xmath.MulModOperand, p uint64, first, T int)
TEXT ·fwdRound8IFMA(SB), NOSPLIT, $0-72
	FWD_BODY

// func invRound8IFMA(view []uint64, roots []xmath.MulModOperand, p uint64, first, t int)
TEXT ·invRound8IFMA(SB), NOSPLIT, $0-72
	INV_BODY

// func fwdRound8TransposedIFMA(view []uint64, roots []xmath.MulModOperand, p uint64, first int)
TEXT ·fwdRound8TransposedIFMA(SB), NOSPLIT, $0-64
	FWDT_BODY

// func invRound8TransposedIFMA(view []uint64, roots []xmath.MulModOperand, p uint64, first int)
TEXT ·invRound8TransposedIFMA(SB), NOSPLIT, $0-64
	INVT_BODY

// func finalizeInverseIFMA(x []uint64, p uint64, nInv xmath.MulModOperand)
TEXT ·finalizeInverseIFMA(SB), NOSPLIT, $0-48
	FINALIZE_INVERSE_BODY
