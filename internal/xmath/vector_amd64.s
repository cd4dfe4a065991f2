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
// all end in the canonical residue.
//
// The rows with a product come in two families that share their loop
// bodies (the …_BODY macros) and differ only in how they form and
// reduce the products: PRODUCTS, IP_REDUCE, REDUCE_WORD, HALF, MUL,
// ADDW, ADD128, REDUCE_PRODUCT, MULW, SM_CONSTS and CONSTS are defined
// for the 64-bit kernels (…AVX512: AVX-512F + DQ, any modulus) above
// their TEXT blocks and redefined for the IFMA kernels (…IFMA: AVX-512
// IFMA, the moduli xmath.newBarrett52 admits, all from 2^12 to 2^50 but
// the powers of two) above theirs. The add has no product: one kernel.
//
// Constants of the 64-bit kernels:
//   Z24  1 in every lane        Z25  0xffffffff in every lane
//   Z26  r1 >> 32               Z27  r0 >> 32
//   Z28  r1                     Z29  r0
//   Z30  p                      Z31  2^30 − 1 in every lane
// where (r1, r0) = floor(2^128/p), Modulus.ConstRatio. ReduceRow uses
// no r0; AddRow and SubMulRow load only what they use.
//
// Constants of the IFMA kernels (newBarrett52's s, ratio and fold):
//   Z24  2^52 − 1 in every lane Z25  52 − s
//   Z26  s                      Z27  the fold's quotient, floor(F·2^52/p)
//   Z28  ratio = floor(2^(s+52)/p)
//   Z29  F = 2^52 mod p         Z30  p        Z31  −p
// where s = bitlen(p) − 1; only the inner product reads Z27 and Z29.
// SubMulRow holds W and W' >> 12 in Z28 and Z29 instead, and loads
// only Z24, Z30 and Z31 of the rest.

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

// The inner product reads each of its 3c row streams 128 bytes per
// visit: two columns of eight go at a time, their sums in Z0–Z7 and
// Z8–Z15, and a software prefetch runs 512 bytes ahead on each
// (without it the walk ran about a quarter slower on a Sapphire Rapids
// Xeon: the hardware prefetchers do not keep up with 27 streams).
// PRODUCTS adds one term's products to a column's eight sums A0–A7
// from Z16 = d, Z17 = b and Z18 = a; IP_REDUCE reduces the sums into Z0
// and Z8 (Σ d·b) and Z4 and Z12 (Σ d·a).

// TERMCOL adds one term's column at OFF bytes past column SI to
// A0–A7: AX, BX and CX point at the term's rows of d, b and a.
#define TERMCOL(OFF, A0, A1, A2, A3, A4, A5, A6, A7) \
	VMOVDQU64  OFF(AX)(SI*8), Z16; \
	VMOVDQU64  OFF(BX)(SI*8), Z17; \
	VMOVDQU64  OFF(CX)(SI*8), Z18; \
	PREFETCHT0 512+OFF(AX)(SI*8); \
	PREFETCHT0 512+OFF(BX)(SI*8); \
	PREFETCHT0 512+OFF(CX)(SI*8); \
	PRODUCTS(A0, A1, A2, A3, A4, A5, A6, A7)

// IP_BODY is the inner product (func(out0, out1 []uint64, d, b, a
// [][]uint64, lo, end int, p …)), after the constants.
#define IP_BODY \
	MOVQ  out0_base+0(FP), R12; \
	MOVQ  out1_base+24(FP), R13; \
	MOVQ  d_base+48(FP), R8; \
	MOVQ  d_len+56(FP), R11; \
	IMULQ $24, R11; \
	MOVQ  b_base+72(FP), R9; \
	MOVQ  a_base+96(FP), R10; \
	MOVQ  lo+120(FP), SI; \
	MOVQ  end+128(FP), DX; \
ipColumn: \
	CMPQ   SI, DX; \
	JGE    ipDone; \
	VPXORQ Z0, Z0, Z0; \
	VPXORQ Z1, Z1, Z1; \
	VPXORQ Z2, Z2, Z2; \
	VPXORQ Z3, Z3, Z3; \
	VPXORQ Z4, Z4, Z4; \
	VPXORQ Z5, Z5, Z5; \
	VPXORQ Z6, Z6, Z6; \
	VPXORQ Z7, Z7, Z7; \
	VPXORQ Z8, Z8, Z8; \
	VPXORQ Z9, Z9, Z9; \
	VPXORQ Z10, Z10, Z10; \
	VPXORQ Z11, Z11, Z11; \
	VPXORQ Z12, Z12, Z12; \
	VPXORQ Z13, Z13, Z13; \
	VPXORQ Z14, Z14, Z14; \
	VPXORQ Z15, Z15, Z15; \
	XORQ   R14, R14; \
ipTerm: \
	CMPQ R14, R11; \
	JGE  ipReduce; \
	MOVQ (R8)(R14*1), AX; \
	MOVQ (R9)(R14*1), BX; \
	MOVQ (R10)(R14*1), CX; \
	TERMCOL(0, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7); \
	TERMCOL(64, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15); \
	ADDQ $24, R14; \
	JMP  ipTerm; \
ipReduce: \
	IP_REDUCE; \
	VMOVDQU64 Z0, (R12)(SI*8); \
	VMOVDQU64 Z8, 64(R12)(SI*8); \
	VMOVDQU64 Z4, (R13)(SI*8); \
	VMOVDQU64 Z12, 64(R13)(SI*8); \
	ADDQ      $16, SI; \
	JMP       ipColumn; \
ipDone: \
	VZEROUPPER; \
	RET

// REDUCE_ROW_BODY is ReduceRow (func(dst, src []uint64, p …)), after
// the constants: REDUCE_WORD reduces a 64-bit word.
#define REDUCE_ROW_BODY \
	MOVQ dst_base+0(FP), DI; \
	MOVQ src_base+24(FP), SI; \
	MOVQ src_len+32(FP), CX; \
	SHRQ $3, CX; \
	JZ   rrDone; \
rrLoop: \
	VMOVDQU64 (SI), Z0; \
	REDUCE_WORD(Z0); \
	VMOVDQU64 Z0, (DI); \
	ADDQ      $64, SI; \
	ADDQ      $64, DI; \
	DECQ      CX; \
	JNZ       rrLoop; \
rrDone: \
	VZEROUPPER; \
	RET

// SUB_MUL_ROW_BODY is SubMulRow (func(dst, a, add []uint64, p, w, wq
// uint64)): dst = W·(a − dst) mod p, + add mod p when add is not
// empty: SubMod, then Harvey's lazy product in [0, 2p) (MULW, on
// Z28 = W and Z29 = W', which SM_CONSTS prepares) and min(r, r − p),
// then AddMod.
#define SUB_MUL_ROW_BODY \
	MOVQ         dst_base+0(FP), DI; \
	MOVQ         dst_len+8(FP), CX; \
	MOVQ         a_base+24(FP), SI; \
	MOVQ         add_base+48(FP), R8; \
	MOVQ         add_len+56(FP), R9; \
	VPBROADCASTQ p+72(FP), Z30; \
	VPBROADCASTQ w+80(FP), Z28; \
	VPBROADCASTQ wq+88(FP), Z29; \
	SM_CONSTS; \
	SHRQ         $3, CX; \
	JZ           smDone; \
smLoop: \
	VMOVDQU64 (SI), Z0; \
	VPADDQ    Z30, Z0, Z0; \
	VPSUBQ    (DI), Z0, Z0; \
	VPSUBQ    Z30, Z0, Z1; \
	VPMINUQ   Z1, Z0, Z0; \
	MULW(Z0); \
	VPSUBQ    Z30, Z0, Z1; \
	VPMINUQ   Z1, Z0, Z0; \
	TESTQ     R9, R9; \
	JZ        smStore; \
	VPADDQ    (R8), Z0, Z0; \
	VPSUBQ    Z30, Z0, Z1; \
	VPMINUQ   Z1, Z0, Z0; \
	ADDQ      $64, R8; \
smStore: \
	VMOVDQU64 Z0, (DI); \
	ADDQ      $64, SI; \
	ADDQ      $64, DI; \
	DECQ      CX; \
	JNZ       smLoop; \
smDone: \
	VZEROUPPER; \
	RET

// The elementwise rows form each product as a high and a low word,
// H:L = X·Y (MUL, given XH and YH, which HALF sets from X and Y once
// for every product they are in), add a word or a second product to it
// (ADDW, ADD128) and reduce it into L (REDUCE_PRODUCT).

// MUL_ADD_ROW_BODY is MulAddRow (func(dst, a, b, add []uint64, p …)),
// after the constants: dst = a·b (+ add) mod p, the addend added to
// the product when add is not empty, one reduction. add is loaded
// before dst is stored, so it may be dst.
#define MUL_ADD_ROW_BODY \
	MOVQ dst_base+0(FP), DI; \
	MOVQ dst_len+8(FP), CX; \
	MOVQ a_base+24(FP), SI; \
	MOVQ b_base+48(FP), R8; \
	MOVQ add_base+72(FP), R9; \
	MOVQ add_len+80(FP), R10; \
	SHRQ $3, CX; \
	JZ   maDone; \
maLoop: \
	VMOVDQU64 (SI), Z0; \
	VMOVDQU64 (R8), Z1; \
	HALF(Z0, Z4); \
	HALF(Z1, Z5); \
	MUL(Z0, Z4, Z1, Z5, Z7, Z8); \
	TESTQ     R10, R10; \
	JZ        maReduce; \
	VMOVDQU64 (R9), Z9; \
	ADDW(Z7, Z8, Z9); \
	ADDQ      $64, R9; \
maReduce: \
	REDUCE_PRODUCT(Z7, Z8); \
	VMOVDQU64 Z8, (DI); \
	ADDQ      $64, SI; \
	ADDQ      $64, R8; \
	ADDQ      $64, DI; \
	DECQ      CX; \
	JNZ       maLoop; \
maDone: \
	VZEROUPPER; \
	RET

// TENSOR_ROW_BODY is TensorRow (func(d0, d1, d2, a0, a1, b0, b1
// []uint64, p …)), after the constants: d0 = a0·b0, d1 = a0·b1 + a1·b0
// (one reduction), d2 = a1·b1, mod p. Z0, Z1, Z4, Z5 hold a0, a1, b0,
// b1 and Z7–Z10 what HALF makes of them.
#define TENSOR_ROW_BODY \
	MOVQ d0_base+0(FP), DI; \
	MOVQ d0_len+8(FP), CX; \
	MOVQ d1_base+24(FP), R8; \
	MOVQ d2_base+48(FP), R9; \
	MOVQ a0_base+72(FP), SI; \
	MOVQ a1_base+96(FP), R10; \
	MOVQ b0_base+120(FP), R11; \
	MOVQ b1_base+144(FP), R12; \
	SHRQ $3, CX; \
	JZ   trDone; \
	XORQ BX, BX; \
trLoop: \
	VMOVDQU64 (SI)(BX*8), Z0; \
	VMOVDQU64 (R10)(BX*8), Z1; \
	VMOVDQU64 (R11)(BX*8), Z4; \
	VMOVDQU64 (R12)(BX*8), Z5; \
	HALF(Z0, Z7); \
	HALF(Z1, Z8); \
	HALF(Z4, Z9); \
	HALF(Z5, Z10); \
	MUL(Z0, Z7, Z4, Z9, Z11, Z12); \
	REDUCE_PRODUCT(Z11, Z12); \
	VMOVDQU64 Z12, (DI)(BX*8); \
	MUL(Z1, Z8, Z5, Z10, Z11, Z12); \
	REDUCE_PRODUCT(Z11, Z12); \
	VMOVDQU64 Z12, (R9)(BX*8); \
	MUL(Z0, Z7, Z5, Z10, Z11, Z12); \
	MUL(Z1, Z8, Z4, Z9, Z13, Z14); \
	ADD128(Z11, Z12, Z13, Z14); \
	REDUCE_PRODUCT(Z11, Z12); \
	VMOVDQU64 Z12, (R8)(BX*8); \
	ADDQ      $8, BX; \
	DECQ      CX; \
	JNZ       trLoop; \
trDone: \
	VZEROUPPER; \
	RET

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

// The 64-bit kernels. The inner product splits every operand into
// 30-bit halves, v = vh·2^30 + vl (operands are below 2^60), so each
// of the four partial products of a term is below 2^60 and sums in a
// 64-bit lane without a carry for up to 16 terms (vectorTerms):
//   LL = Σ dl·vl   LH = Σ dl·vh   HL = Σ dh·vl   HH = Σ dh·vh
// one set per output and column: A0–A3 for Σ d·b, A4–A7 for Σ d·a.
// Z19–Z23 are scratch.
#define PRODUCTS(A0, A1, A2, A3, A4, A5, A6, A7) \
	VPANDQ   Z31, Z16, Z19; \
	VPSRLQ   $30, Z16, Z16; \
	VPANDQ   Z31, Z17, Z20; \
	VPSRLQ   $30, Z17, Z17; \
	VPANDQ   Z31, Z18, Z21; \
	VPSRLQ   $30, Z18, Z18; \
	VPMULUDQ Z19, Z20, Z22; \
	VPADDQ   Z22, A0, A0; \
	VPMULUDQ Z19, Z17, Z23; \
	VPADDQ   Z23, A1, A1; \
	VPMULUDQ Z16, Z20, Z22; \
	VPADDQ   Z22, A2, A2; \
	VPMULUDQ Z16, Z17, Z23; \
	VPADDQ   Z23, A3, A3; \
	VPMULUDQ Z19, Z21, Z22; \
	VPADDQ   Z22, A4, A4; \
	VPMULUDQ Z19, Z18, Z23; \
	VPADDQ   Z23, A5, A5; \
	VPMULUDQ Z16, Z21, Z22; \
	VPADDQ   Z22, A6, A6; \
	VPMULUDQ Z16, Z18, Z23; \
	VPADDQ   Z23, A7, A7

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

#define IP_REDUCE \
	COMBINE(Z0, Z1, Z2, Z3); \
	COMBINE(Z4, Z5, Z6, Z7); \
	COMBINE(Z8, Z9, Z10, Z11); \
	COMBINE(Z12, Z13, Z14, Z15); \
	REDUCE128(Z1, Z0); \
	REDUCE128(Z5, Z4); \
	REDUCE128(Z9, Z8); \
	REDUCE128(Z13, Z12)

// REDUCE_WORD is BarrettReduce: q = hi64(X·r1), X − q·p in [0, 2p),
// then min(r, r − p). Z1–Z4 and Z6 are scratch.
#define REDUCE_WORD(X) \
	VPSRLQ  $32, X, Z1; \
	HI64(X, Z1, Z28, Z26, Z4); \
	VPMULLQ Z30, Z4, Z4; \
	VPSUBQ  Z4, X, X; \
	VPSUBQ  Z30, X, Z1; \
	VPMINUQ Z1, X, X

// The products are whole 128-bit ones, high word from HI64 and low
// word from VPMULLQ; a sum adds its low words and carries through a
// mask like COMBINE, and REDUCE128 finishes. This is the Go loops'
// arithmetic word for word, so they agree on any 64-bit input, not
// only on residues.
#define HALF(X, XH) VPSRLQ $32, X, XH

#define MUL(X, XH, Y, YH, H, L) \
	HI64(X, XH, Y, YH, H); \
	VPMULLQ Y, X, L

// ADDW sets H:L += V (mod 2^128), carrying through K1.
#define ADDW(H, L, V) \
	VPADDQ  V, L, L; \
	VPCMPUQ $1, V, L, K1; \
	VPADDQ  Z24, H, K1, H

// ADD128 sets H:L += H2:L2 (mod 2^128).
#define ADD128(H, L, H2, L2) \
	VPADDQ H2, H, H; \
	ADDW(H, L, L2)

#define REDUCE_PRODUCT(H, L) REDUCE128(H, L)

// MULW sets Y = Y·W − hi64(Y·W')·p, Harvey's lazy product (the NTT's
// 64-bit MULLAZY), with Z27 = W' >> 32. Z1–Z4 and Z6 are scratch.
#define MULW(Y) \
	VPSRLQ  $32, Y, Z1; \
	HI64(Y, Z1, Z29, Z27, Z4); \
	VPMULLQ Z28, Y, Y; \
	VPMULLQ Z30, Z4, Z4; \
	VPSUBQ  Z4, Y, Y

#define SM_CONSTS \
	MOVQ         $0xffffffff, AX; \
	VPBROADCASTQ AX, Z25; \
	VPSRLQ       $32, Z29, Z27

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

// RATIO0 loads r0 (Z29) and r0 >> 32 (Z27).
#define RATIO0(R0ARG) \
	VPBROADCASTQ R0ARG, Z29; \
	VPSRLQ       $32, Z29, Z27

// func innerProductPairAVX512(out0, out1 []uint64, d, b, a [][]uint64, lo, end int, p, r0, r1 uint64)
TEXT ·innerProductPairAVX512(SB), NOSPLIT, $0-160
	CONSTS(p+136(FP), r1+152(FP))
	RATIO0(r0+144(FP))
	IP_BODY

// func reduceRowAVX512(dst, src []uint64, p, r1 uint64)
TEXT ·reduceRowAVX512(SB), NOSPLIT, $0-64
	CONSTS(p+48(FP), r1+56(FP))
	REDUCE_ROW_BODY

// func subMulRowAVX512(dst, a, add []uint64, p, w, wq uint64)
TEXT ·subMulRowAVX512(SB), NOSPLIT, $0-96
	SUB_MUL_ROW_BODY

// func mulAddRowAVX512(dst, a, b, add []uint64, p, r0, r1 uint64)
TEXT ·mulAddRowAVX512(SB), NOSPLIT, $0-120
	CONSTS(p+96(FP), r1+112(FP))
	RATIO0(r0+104(FP))
	MUL_ADD_ROW_BODY

// func tensorRowAVX512(d0, d1, d2, a0, a1, b0, b1 []uint64, p, r0, r1 uint64)
TEXT ·tensorRowAVX512(SB), NOSPLIT, $0-192
	CONSTS(p+168(FP), r1+184(FP))
	RATIO0(r0+176(FP))
	TENSOR_ROW_BODY

#undef PRODUCTS
#undef IP_REDUCE
#undef REDUCE_WORD
#undef HALF
#undef MUL
#undef ADDW
#undef ADD128
#undef REDUCE_PRODUCT
#undef MULW
#undef SM_CONSTS
#undef CONSTS
#undef RATIO0

// The IFMA kernels. Operands are below p < 2^50, so a product X·Y is
// below 2^100 and IFMA gives it as two words, H = hi52(X·Y) from
// VPMADD52HUQ and L = lo52(X·Y) from VPMADD52LUQ: X·Y = H·2^52 + L.
// Every product is reduced by one 52-bit Barrett reduction
// (xmath.newBarrett52): c1 = V >> s, q = hi52(c1·ratio),
// r = lo52(L − q·p) in [0, 3p), then min(r, r − p) twice.

// REDUCE52 sets L = V mod p, given C1 = V >> s and L ≡ V mod 2^52 (any
// 64-bit word that is). Z21 is scratch.
#define REDUCE52(C1, L) \
	VPXORQ      Z21, Z21, Z21; \
	VPMADD52HUQ Z28, C1, Z21; \
	VPMADD52LUQ Z31, Z21, L; \
	VPANDQ      Z24, L, L; \
	VPSUBQ      Z30, L, Z21; \
	VPMINUQ     Z21, L, L; \
	VPSUBQ      Z30, L, Z21; \
	VPMINUQ     Z21, L, L

// The inner product sums each product's halves, A0 and A4 the low
// ones (below 2^56 for 16 terms), A1 and A5 the high ones (below
// 2^52); A2, A3, A6 and A7 stay zero.
#define PRODUCTS(A0, A1, A2, A3, A4, A5, A6, A7) \
	VPMADD52LUQ Z17, Z16, A0; \
	VPMADD52HUQ Z17, Z16, A1; \
	VPMADD52LUQ Z18, Z16, A4; \
	VPMADD52HUQ Z18, Z16, A5

// FOLD sets L = (H·2^52 + L) mod p for the inner product's sums: the
// high sum folds back as T = H·F − hi52(H·F')·p in [0, 2p), Harvey's
// lazy product by F = 2^52 mod p (H is below 2^52), and L + T, below
// 2^57, is reduced. Z20 and Z21 are scratch.
#define FOLD(H, L) \
	VPXORQ      Z20, Z20, Z20; \
	VPMADD52HUQ Z27, H, Z20; \
	VPXORQ      Z21, Z21, Z21; \
	VPMADD52LUQ Z29, H, Z21; \
	VPMADD52LUQ Z31, Z20, Z21; \
	VPANDQ      Z24, Z21, Z21; \
	VPADDQ      Z21, L, L; \
	VPSRLVQ     Z26, L, Z20; \
	REDUCE52(Z20, L)

#define IP_REDUCE \
	FOLD(Z1, Z0); \
	FOLD(Z5, Z4); \
	FOLD(Z9, Z8); \
	FOLD(Z13, Z12)

// REDUCE_WORD reduces a 64-bit word: c1 = X >> s is below 2^52 since
// s >= 12. Z20 and Z21 are scratch.
#define REDUCE_WORD(X) \
	VPSRLVQ Z26, X, Z20; \
	REDUCE52(Z20, X)

// HALF has nothing to do: IFMA takes the operands whole.
#define HALF(X, XH)

#define MUL(X, XH, Y, YH, H, L) \
	VPXORQ      H, H, H; \
	VPMADD52HUQ Y, X, H; \
	VPXORQ      L, L, L; \
	VPMADD52LUQ Y, X, L

// ADDW and ADD128 add without a carry: L stays far below 2^64.
#define ADDW(H, L, V) VPADDQ V, L, L

#define ADD128(H, L, H2, L2) \
	VPADDQ H2, H, H; \
	VPADDQ L2, L, L

// REDUCE_PRODUCT reduces V = H·2^52 + L, c1 = (H << (52 − s)) +
// (L >> s). Z20 and Z21 are scratch.
#define REDUCE_PRODUCT(H, L) \
	VPSLLVQ Z25, H, Z20; \
	VPSRLVQ Z26, L, Z21; \
	VPADDQ  Z21, Z20, Z20; \
	REDUCE52(Z20, L)

// MULW sets Y = Y·W − hi52(Y·(W' >> 12))·p mod 2^52, Harvey's lazy
// product in [0, 2p) (the NTT's IFMA MULLAZY): W' >> 12 is
// floor(W·2^52/p) for a W' of either NewMulModOperand form. Z1 and Z4
// are scratch.
#define MULW(Y) \
	VPXORQ      Z4, Z4, Z4; \
	VPMADD52HUQ Z29, Y, Z4; \
	VPXORQ      Z1, Z1, Z1; \
	VPMADD52LUQ Z28, Y, Z1; \
	VPMADD52LUQ Z31, Z4, Z1; \
	VPANDQ      Z24, Z1, Y

#define SM_CONSTS \
	MOVQ         $0xfffffffffffff, AX; \
	VPBROADCASTQ AX, Z24; \
	VPXORQ       Z31, Z31, Z31; \
	VPSUBQ       Z30, Z31, Z31; \
	VPSRLQ       $12, Z29, Z29

// CONSTS loads the constants but the fold's (Z27, Z29) from p, s and
// the ratio.
#define CONSTS(PARG, SARG, RATIOARG) \
	MOVQ         $0xfffffffffffff, AX; \
	VPBROADCASTQ AX, Z24; \
	VPBROADCASTQ SARG, Z26; \
	MOVQ         $52, AX; \
	VPBROADCASTQ AX, Z25; \
	VPSUBQ       Z26, Z25, Z25; \
	VPBROADCASTQ RATIOARG, Z28; \
	VPBROADCASTQ PARG, Z30; \
	VPXORQ       Z31, Z31, Z31; \
	VPSUBQ       Z30, Z31, Z31

// func innerProductPairIFMA(out0, out1 []uint64, d, b, a [][]uint64, lo, end int, p uint64, k barrett52)
TEXT ·innerProductPairIFMA(SB), NOSPLIT, $0-176
	CONSTS(p+136(FP), k_shift+144(FP), k_ratio+152(FP))
	VPBROADCASTQ k_fold_Operand+160(FP), Z29
	VPBROADCASTQ k_fold_Quotient+168(FP), Z27
	VPSRLQ       $12, Z27, Z27
	IP_BODY

// func reduceRowIFMA(dst, src []uint64, p uint64, k barrett52)
TEXT ·reduceRowIFMA(SB), NOSPLIT, $0-88
	CONSTS(p+48(FP), k_shift+56(FP), k_ratio+64(FP))
	REDUCE_ROW_BODY

// func subMulRowIFMA(dst, a, add []uint64, p, w, wq uint64)
TEXT ·subMulRowIFMA(SB), NOSPLIT, $0-96
	SUB_MUL_ROW_BODY

// func mulAddRowIFMA(dst, a, b, add []uint64, p uint64, k barrett52)
TEXT ·mulAddRowIFMA(SB), NOSPLIT, $0-136
	CONSTS(p+96(FP), k_shift+104(FP), k_ratio+112(FP))
	MUL_ADD_ROW_BODY

// func tensorRowIFMA(d0, d1, d2, a0, a1, b0, b1 []uint64, p uint64, k barrett52)
TEXT ·tensorRowIFMA(SB), NOSPLIT, $0-208
	CONSTS(p+168(FP), k_shift+176(FP), k_ratio+184(FP))
	TENSOR_ROW_BODY

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
