//go:build !purego

#include "textflag.h"

// AVX-512 bodies of the host's row arithmetic: the key switch's lazy
// inner product (InnerProductPair), the 1-word Barrett row (ReduceRow:
// the digit extension, the mod-down and the rescale) and the scale
// (MulModOperand.SubMulRow: the mod-down and the rescale), and the
// elementwise kernels' rows — the tensor product (TensorRow: he_tensor,
// he_square), the multiply with an optional addend (MulAddRow:
// he_mad_mod, he_mul_then_add, poly's MulInto and MAdInto) and the add
// (AddRow: he_add, poly's AddInto). Each ZMM register holds eight
// consecutive coefficients, so one instruction does the work of eight
// iterations of the Go loops, and the results are theirs bit for bit:
// both end in the canonical residue.
//
// Constants:
//   Z24  1 in every lane        Z25  0xffffffff in every lane
//   Z26  r1 >> 32               Z27  r0 >> 32
//   Z28  r1                     Z29  r0
//   Z30  p                      Z31  2^30 − 1 in every lane
// where (r1, r0) = floor(2^128/p), Modulus.ConstRatio. ReduceRow uses
// no r0; AddRow and SubMulRow load only what they use.

// HI64 sets OUT = hi64(X·Y) exactly, from the four 32×32 products,
// given XH = X >> 32 and YH = Y >> 32: with t = hi32(ll) + lh and
// u = lo32(t) + hl, hi64 = hh + hi32(t) + hi32(u). OUT may be any of
// the inputs; Z2, Z3 and Z6 are scratch (in the inner product they are
// free once the partial sums are combined).
#define HI64(X, XH, Y, YH, OUT) \
	VPMULUDQ X, Y, Z2; \
	VPMULUDQ X, YH, Z3; \
	VPMULUDQ XH, Y, Z6; \
	VPMULUDQ XH, YH, OUT; \
	VPSRLQ   $32, Z2, Z2; \
	VPADDQ   Z2, Z3, Z3; \
	VPANDQ   Z25, Z3, Z2; \
	VPADDQ   Z2, Z6, Z6; \
	VPSRLQ   $32, Z3, Z3; \
	VPSRLQ   $32, Z6, Z6; \
	VPADDQ   Z3, OUT, OUT; \
	VPADDQ   Z6, OUT, OUT

// REDUCE128 sets L = (H·2^64 + L) mod p: barrettQuotient128 lane by
// lane, q = h2 + carry2 + h3 + carry3 + lo64(H·r1), then
// r = L − q·p in [0, 2p) and r = min(r, r − p). Z16–Z23 are scratch.
#define REDUCE128(H, L) \
	VPSRLQ    $32, L, Z16; \
	VPSRLQ    $32, H, Z17; \
	HI64(L, Z16, Z29, Z27, Z18); \
	HI64(L, Z16, Z28, Z26, Z19); \
	VPMULLQ   Z28, L, Z20; \
	VPADDQ    Z18, Z20, Z20; \
	VPCMPUQ   $1, Z18, Z20, K1; \
	HI64(H, Z17, Z29, Z27, Z21); \
	VPMULLQ   Z29, H, Z22; \
	VPADDQ    Z20, Z22, Z22; \
	VPCMPUQ   $1, Z20, Z22, K2; \
	VPMULLQ   Z28, H, Z23; \
	VPADDQ    Z19, Z21, Z21; \
	VPADDQ    Z23, Z21, Z21; \
	VPADDQ    Z24, Z21, K1, Z21; \
	VPADDQ    Z24, Z21, K2, Z21; \
	VPMULLQ   Z30, Z21, Z21; \
	VPSUBQ    Z21, L, L; \
	VPSUBQ    Z30, L, Z22; \
	VPMINUQ   Z22, L, L

// The inner product splits every operand into 30-bit halves, v = vh·2^30
// + vl (operands are below 2^60), so each of the four partial products
// of a term is below 2^60 and sums in a 64-bit lane without a carry for
// up to 16 terms (vectorTerms):
//   LL = Σ dl·vl   LH = Σ dl·vh   HL = Σ dh·vl   HH = Σ dh·vh
// one set per output and column. Two columns of eight go at a time,
// their sums in Z0–Z7 and Z8–Z15, so each of the 3c row streams is read
// 128 bytes per visit, and a software prefetch runs 512 bytes ahead on
// each (without it the walk ran about a quarter slower on a Sapphire
// Rapids Xeon: the hardware prefetchers do not keep up with 27 streams).

// TERMCOL adds one term's column at OFF bytes past column SI to
// A0–A3 (Σ d·b) and A4–A7 (Σ d·a): AX, BX and CX point at the term's
// rows of d, b and a. Z16–Z23 are scratch.
#define TERMCOL(OFF, A0, A1, A2, A3, A4, A5, A6, A7) \
	VMOVDQU64  OFF(AX)(SI*8), Z16; \
	VMOVDQU64  OFF(BX)(SI*8), Z17; \
	VMOVDQU64  OFF(CX)(SI*8), Z18; \
	PREFETCHT0 512+OFF(AX)(SI*8); \
	PREFETCHT0 512+OFF(BX)(SI*8); \
	PREFETCHT0 512+OFF(CX)(SI*8); \
	VPANDQ     Z31, Z16, Z19; \
	VPSRLQ     $30, Z16, Z16; \
	VPANDQ     Z31, Z17, Z20; \
	VPSRLQ     $30, Z17, Z17; \
	VPANDQ     Z31, Z18, Z21; \
	VPSRLQ     $30, Z18, Z18; \
	VPMULUDQ   Z19, Z20, Z22; \
	VPADDQ     Z22, A0, A0; \
	VPMULUDQ   Z19, Z17, Z23; \
	VPADDQ     Z23, A1, A1; \
	VPMULUDQ   Z16, Z20, Z22; \
	VPADDQ     Z22, A2, A2; \
	VPMULUDQ   Z16, Z17, Z23; \
	VPADDQ     Z23, A3, A3; \
	VPMULUDQ   Z19, Z21, Z22; \
	VPADDQ     Z22, A4, A4; \
	VPMULUDQ   Z19, Z18, Z23; \
	VPADDQ     Z23, A5, A5; \
	VPMULUDQ   Z16, Z21, Z22; \
	VPADDQ     Z22, A6, A6; \
	VPMULUDQ   Z16, Z18, Z23; \
	VPADDQ     Z23, A7, A7

// COMBINE folds one output's partial sums into 128 bits: LL becomes
// the low word of LL + (LH + HL)·2^30 + HH·2^60 and LH the high word,
// each add to the low word carrying into it through a mask. HL and HH
// are clobbered; Z16 is scratch.
#define COMBINE(LL, LH, HL, HH) \
	VPSRLQ  $34, LH, Z16; \
	VPSLLQ  $30, LH, LH; \
	VPADDQ  LH, LL, LL; \
	VPCMPUQ $1, LH, LL, K1; \
	VPSRLQ  $34, HL, LH; \
	VPADDQ  Z16, LH, LH; \
	VPSLLQ  $30, HL, HL; \
	VPADDQ  HL, LL, LL; \
	VPCMPUQ $1, HL, LL, K2; \
	VPSRLQ  $4, HH, Z16; \
	VPADDQ  Z16, LH, LH; \
	VPSLLQ  $60, HH, HH; \
	VPADDQ  HH, LL, LL; \
	VPCMPUQ $1, HH, LL, K3; \
	VPADDQ  Z24, LH, K1, LH; \
	VPADDQ  Z24, LH, K2, LH; \
	VPADDQ  Z24, LH, K3, LH

// CONSTS loads the constants but r0 (Z27, Z29) from p and r1.
#define CONSTS(PARG, R1ARG) \
	MOVQ         $1, AX; \
	VPBROADCASTQ AX, Z24; \
	MOVQ         $0xffffffff, AX; \
	VPBROADCASTQ AX, Z25; \
	MOVQ         $0x3fffffff, AX; \
	VPBROADCASTQ AX, Z31; \
	VPBROADCASTQ R1ARG, Z28; \
	VPSRLQ       $32, Z28, Z26; \
	VPBROADCASTQ PARG, Z30

// func innerProductPairAVX512(out0, out1 []uint64, d, b, a [][]uint64, lo, end int, p, r0, r1 uint64)
TEXT ·innerProductPairAVX512(SB), NOSPLIT, $0-160
	MOVQ  out0_base+0(FP), R12
	MOVQ  out1_base+24(FP), R13
	MOVQ  d_base+48(FP), R8
	MOVQ  d_len+56(FP), R11
	IMULQ $24, R11
	MOVQ  b_base+72(FP), R9
	MOVQ  a_base+96(FP), R10
	MOVQ  lo+120(FP), SI
	MOVQ  end+128(FP), DX
	CONSTS(p+136(FP), r1+152(FP))
	VPBROADCASTQ r0+144(FP), Z29
	VPSRLQ       $32, Z29, Z27

ipColumn:
	CMPQ   SI, DX
	JGE    ipDone
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	XORQ   R14, R14

ipTerm:
	CMPQ R14, R11
	JGE  ipReduce
	MOVQ (R8)(R14*1), AX
	MOVQ (R9)(R14*1), BX
	MOVQ (R10)(R14*1), CX
	TERMCOL(0, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	TERMCOL(64, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	ADDQ $24, R14
	JMP  ipTerm

ipReduce:
	COMBINE(Z0, Z1, Z2, Z3)
	COMBINE(Z4, Z5, Z6, Z7)
	COMBINE(Z8, Z9, Z10, Z11)
	COMBINE(Z12, Z13, Z14, Z15)
	REDUCE128(Z1, Z0)
	REDUCE128(Z5, Z4)
	REDUCE128(Z9, Z8)
	REDUCE128(Z13, Z12)
	VMOVDQU64 Z0, (R12)(SI*8)
	VMOVDQU64 Z8, 64(R12)(SI*8)
	VMOVDQU64 Z4, (R13)(SI*8)
	VMOVDQU64 Z12, 64(R13)(SI*8)
	ADDQ      $16, SI
	JMP       ipColumn

ipDone:
	VZEROUPPER
	RET

// func reduceRowAVX512(dst, src []uint64, p, r1 uint64)
TEXT ·reduceRowAVX512(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	CONSTS(p+48(FP), r1+56(FP))
	SHRQ $3, CX
	JZ   rrDone

rrLoop:
	VMOVDQU64 (SI), Z0
	VPSRLQ    $32, Z0, Z1
	HI64(Z0, Z1, Z28, Z26, Z4)
	VPMULLQ   Z30, Z4, Z4
	VPSUBQ    Z4, Z0, Z0
	VPSUBQ    Z30, Z0, Z1
	VPMINUQ   Z1, Z0, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	DECQ      CX
	JNZ       rrLoop

rrDone:
	VZEROUPPER
	RET

// func subMulRowAVX512(dst, a, add []uint64, p, w, wq uint64)
//
// dst = W·(a − dst) mod p, + add mod p when add is not empty: SubMod,
// then Harvey's lazy product y·W − hi64(y·W')·p in [0, 2p) (the NTT's
// MULLAZY) and min(r, r − p), then AddMod. Here Z28 holds W and Z29 W',
// Z27 W' >> 32.
TEXT ·subMulRowAVX512(SB), NOSPLIT, $0-96
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         a_base+24(FP), SI
	MOVQ         add_base+48(FP), R8
	MOVQ         add_len+56(FP), R9
	MOVQ         $0xffffffff, AX
	VPBROADCASTQ AX, Z25
	VPBROADCASTQ p+72(FP), Z30
	VPBROADCASTQ w+80(FP), Z28
	VPBROADCASTQ wq+88(FP), Z29
	VPSRLQ       $32, Z29, Z27
	SHRQ         $3, CX
	JZ           smDone

smLoop:
	VMOVDQU64 (SI), Z0
	VPADDQ    Z30, Z0, Z0
	VPSUBQ    (DI), Z0, Z0
	VPSUBQ    Z30, Z0, Z1
	VPMINUQ   Z1, Z0, Z0
	VPSRLQ    $32, Z0, Z1
	HI64(Z0, Z1, Z29, Z27, Z4)
	VPMULLQ   Z28, Z0, Z0
	VPMULLQ   Z30, Z4, Z4
	VPSUBQ    Z4, Z0, Z0
	VPSUBQ    Z30, Z0, Z1
	VPMINUQ   Z1, Z0, Z0
	TESTQ     R9, R9
	JZ        smStore
	VPADDQ    (R8), Z0, Z0
	VPSUBQ    Z30, Z0, Z1
	VPMINUQ   Z1, Z0, Z0
	ADDQ      $64, R8

smStore:
	VMOVDQU64 Z0, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	DECQ      CX
	JNZ       smLoop

smDone:
	VZEROUPPER
	RET

// The elementwise rows. The products are whole 128-bit ones, high
// word from HI64 and low word from VPMULLQ, each operand split once
// (its high 32 bits, X >> 32) for every product it is in; a sum of two
// adds its low words and carries through a mask like COMBINE, and REDUCE128 finishes.
// This is the Go loops' arithmetic word for word, so they agree on any
// 64-bit input, not only on residues.

// MUL128 sets H:L = X·Y, given XH = X >> 32 and YH = Y >> 32.
#define MUL128(X, XH, Y, YH, H, L) \
	HI64(X, XH, Y, YH, H); \
	VPMULLQ Y, X, L

// ADDC sets H:L += V (mod 2^128), carrying through K1.
#define ADDC(H, L, V) \
	VPADDQ  V, L, L; \
	VPCMPUQ $1, V, L, K1; \
	VPADDQ  Z24, H, K1, H

// func addRowAVX512(dst, a, b []uint64, p uint64)
//
// dst = a + b mod p: the sum, then min(s, s − p).
TEXT ·addRowAVX512(SB), NOSPLIT, $0-80
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         a_base+24(FP), SI
	MOVQ         b_base+48(FP), R8
	VPBROADCASTQ p+72(FP), Z30
	SHRQ         $3, CX
	JZ           arDone

arLoop:
	VMOVDQU64 (SI), Z0
	VPADDQ    (R8), Z0, Z0
	VPSUBQ    Z30, Z0, Z1
	VPMINUQ   Z1, Z0, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ      $64, SI
	ADDQ      $64, R8
	ADDQ      $64, DI
	DECQ      CX
	JNZ       arLoop

arDone:
	VZEROUPPER
	RET

// func mulAddRowAVX512(dst, a, b, add []uint64, p, r0, r1 uint64)
//
// dst = a·b (+ add) mod p: the 128-bit product, the addend carried
// into it when add is not empty, one REDUCE128. add is loaded before
// dst is stored, so it may be dst.
TEXT ·mulAddRowAVX512(SB), NOSPLIT, $0-120
	CONSTS(p+96(FP), r1+112(FP))
	VPBROADCASTQ r0+104(FP), Z29
	VPSRLQ       $32, Z29, Z27
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         a_base+24(FP), SI
	MOVQ         b_base+48(FP), R8
	MOVQ         add_base+72(FP), R9
	MOVQ         add_len+80(FP), R10
	SHRQ         $3, CX
	JZ           maDone

maLoop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (R8), Z1
	VPSRLQ    $32, Z0, Z4
	VPSRLQ    $32, Z1, Z5
	MUL128(Z0, Z4, Z1, Z5, Z7, Z8)
	TESTQ     R10, R10
	JZ        maReduce
	VMOVDQU64 (R9), Z9
	ADDC(Z7, Z8, Z9)
	ADDQ      $64, R9

maReduce:
	REDUCE128(Z7, Z8)
	VMOVDQU64 Z8, (DI)
	ADDQ      $64, SI
	ADDQ      $64, R8
	ADDQ      $64, DI
	DECQ      CX
	JNZ       maLoop

maDone:
	VZEROUPPER
	RET

// func tensorRowAVX512(d0, d1, d2, a0, a1, b0, b1 []uint64, p, r0, r1 uint64)
//
// d0 = a0·b0, d1 = a0·b1 + a1·b0 (one REDUCE128), d2 = a1·b1, mod p.
// Z0, Z1, Z4, Z5 hold a0, a1, b0, b1 and Z7–Z10 their high halves.
TEXT ·tensorRowAVX512(SB), NOSPLIT, $0-192
	CONSTS(p+168(FP), r1+184(FP))
	VPBROADCASTQ r0+176(FP), Z29
	VPSRLQ       $32, Z29, Z27
	MOVQ         d0_base+0(FP), DI
	MOVQ         d0_len+8(FP), CX
	MOVQ         d1_base+24(FP), R8
	MOVQ         d2_base+48(FP), R9
	MOVQ         a0_base+72(FP), SI
	MOVQ         a1_base+96(FP), R10
	MOVQ         b0_base+120(FP), R11
	MOVQ         b1_base+144(FP), R12
	SHRQ         $3, CX
	JZ           trDone
	XORQ         BX, BX

trLoop:
	VMOVDQU64 (SI)(BX*8), Z0
	VMOVDQU64 (R10)(BX*8), Z1
	VMOVDQU64 (R11)(BX*8), Z4
	VMOVDQU64 (R12)(BX*8), Z5
	VPSRLQ    $32, Z0, Z7
	VPSRLQ    $32, Z1, Z8
	VPSRLQ    $32, Z4, Z9
	VPSRLQ    $32, Z5, Z10
	MUL128(Z0, Z7, Z4, Z9, Z11, Z12)
	REDUCE128(Z11, Z12)
	VMOVDQU64 Z12, (DI)(BX*8)
	MUL128(Z1, Z8, Z5, Z10, Z11, Z12)
	REDUCE128(Z11, Z12)
	VMOVDQU64 Z12, (R9)(BX*8)
	MUL128(Z0, Z7, Z5, Z10, Z11, Z12)
	MUL128(Z1, Z8, Z4, Z9, Z13, Z14)
	VPADDQ    Z13, Z11, Z11
	ADDC(Z11, Z12, Z14)
	REDUCE128(Z11, Z12)
	VMOVDQU64 Z12, (R8)(BX*8)
	ADDQ      $8, BX
	DECQ      CX
	JNZ       trLoop

trDone:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
