//go:build !purego

#include "textflag.h"

// AVX-512 radix-8 rounds. Each ZMM register holds one lane of eight
// consecutive coefficients, so one instruction does the work of eight
// Go butterflies on the same values. The transform's last round fuses
// the last-round processing, so there is no vector finalize pass: the
// Go finalizeForward / finalizeInverse follow only rounds run in Go.
//
// The kernels come in three families that share their loop bodies (the
// …_BODY macros) and differ only in how they form the lazy product
// W·y: MULLAZY, QSHIFT and CONSTS are defined for each family above its
// TEXT blocks —
//   - …AVX512: AVX-512F + DQ, 64-bit products, any modulus the rounds
//     take;
//   - …IFMA: AVX-512 IFMA, moduli below 2^50, whose tables hold 52-bit
//     quotients (see ntt.Tables);
//   - …IFMAWide: AVX-512 IFMA, moduli from 2^50 to 2^52, which reduce
//     y to [0, p) and then form the product exactly from 52-bit halves.
// The first two give fwdRound8Go's / invRound8Go's values bit for bit;
// the wide family's lazy values are congruent to them mod p, and every
// family's reduced values are equal.
//
// Register use in the rounds whose lanes are a multiple of eight long
// (the rounds whose blocks are eight coefficients set out theirs at
// FWD_LAST_BODY):
//   Z0–Z7    the eight lanes a0…a7 of a block
//   Z8–Z14   the block's seven twiddle quotients W' (broadcast)
//   Z15–Z21  W' >> QSHIFT: its high half (64-bit kernels) or the
//            52-bit quotient W' >> 12 (IFMA kernels)
// and in every kernel:
//   Z22      p        Z23  2p
//   Z24      0xffffffff (64-bit) or 2^52 − 1 (IFMA) in every lane
//   Z25–Z30  scratch  Z31  −p (IFMA) or 2^52 − p (IFMA-wide)
// The twiddles W themselves are broadcast from the table as memory
// operands: R8 points at roots[i], R9 at roots[2i], R10 at roots[4i]
// (an operand is 16 bytes: W, then W').

// WBCST and WVEC are the two forms of the twiddle operand W that MULLAZY
// multiplies by: a table entry broadcast to every lane, or a vector of
// per-lane twiddles (a register or 64 bytes of memory). The bodies pass
// the form and the operand; MULLAZY supplies the instruction OP.
#define WBCST(OP, W, IN, OUT) OP.BCST W, IN, OUT
#define WVEC(OP, W, IN, OUT) OP W, IN, OUT

// FWD is xmath.HarveyButterfly: X = min(X, X−2p); T = W·Y lazy;
// (X, Y) = (X + T, X + 2p − T).
#define FWD(X, Y, Q, QH, FORM, W) \
	VPSUBQ  Z23, X, Z25; \
	VPMINUQ Z25, X, X; \
	MULLAZY(Y, Q, QH, FORM, W, Y); \
	VPADDQ  Z23, X, Z25; \
	VPADDQ  Y, X, X; \
	VPSUBQ  Y, Z25, Y

// INV is xmath.GSButterfly: (X, Y) = (min(S, S−2p) with S = X + Y,
// W·(X + 2p − Y) lazy).
#define INV(X, Y, Q, QH, FORM, W) \
	VPADDQ  Z23, X, Z30; \
	VPSUBQ  Y, Z30, Z30; \
	VPADDQ  Y, X, X; \
	VPSUBQ  Z23, X, Z25; \
	VPMINUQ Z25, X, X; \
	MULLAZY(Z30, Q, QH, FORM, W, Y)

// REDUCE brings X from [0, 4p) to [0, p): xmath.ReduceToRange.
#define REDUCE(X) \
	VPSUBQ  Z23, X, Z25; \
	VPMINUQ Z25, X, X; \
	VPSUBQ  Z22, X, Z25; \
	VPMINUQ Z25, X, X

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
	FWD(Z0, Z4, Z8, Z15, WBCST, 0(R8)); \
	FWD(Z1, Z5, Z8, Z15, WBCST, 0(R8)); \
	FWD(Z2, Z6, Z8, Z15, WBCST, 0(R8)); \
	FWD(Z3, Z7, Z8, Z15, WBCST, 0(R8)); \
	FWD(Z0, Z2, Z9, Z16, WBCST, 0(R9)); \
	FWD(Z1, Z3, Z9, Z16, WBCST, 0(R9)); \
	FWD(Z4, Z6, Z10, Z17, WBCST, 16(R9)); \
	FWD(Z5, Z7, Z10, Z17, WBCST, 16(R9)); \
	FWD(Z0, Z1, Z11, Z18, WBCST, 0(R10)); \
	FWD(Z2, Z3, Z12, Z19, WBCST, 16(R10)); \
	FWD(Z4, Z5, Z13, Z20, WBCST, 32(R10)); \
	FWD(Z6, Z7, Z14, Z21, WBCST, 48(R10)); \
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
// t int)), with LAST as its last stage: INV_LAST, or INV_LAST_SCALED in
// the transform's last round. A span is 8t elements in eight lanes of
// t: the lane length in bytes is 8t, the same number as the span
// length in elements.
#define INV_BODY(LAST) \
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
	INV(Z0, Z1, Z8, Z15, WBCST, 0(R10)); \
	INV(Z2, Z3, Z9, Z16, WBCST, 16(R10)); \
	INV(Z4, Z5, Z10, Z17, WBCST, 32(R10)); \
	INV(Z6, Z7, Z11, Z18, WBCST, 48(R10)); \
	INV(Z0, Z2, Z12, Z19, WBCST, 0(R9)); \
	INV(Z1, Z3, Z12, Z19, WBCST, 0(R9)); \
	INV(Z4, Z6, Z13, Z20, WBCST, 16(R9)); \
	INV(Z5, Z7, Z13, Z20, WBCST, 16(R9)); \
	LAST; \
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

// INV_LAST is the round's last stage, on the span's one twiddle.
#define INV_LAST \
	INV(Z0, Z4, Z14, Z21, WBCST, 0(R8)); \
	INV(Z1, Z5, Z14, Z21, WBCST, 0(R8)); \
	INV(Z2, Z6, Z14, Z21, WBCST, 0(R8)); \
	INV(Z3, Z7, Z14, Z21, WBCST, 0(R8))

// INV_LAST_SCALED is the transform's last stage with the last-round
// processing fused, finalizeInverse's n^{-1}·x mod p: X = n^{-1}·(X + Y)
// and Y = (n^{-1}·W)·(X + 2p − Y), each a lazy product of a value
// below 4p reduced to [0, p). R12 points at the two operands, n^{-1}
// then n^{-1}·W (Tables.NInv, Tables.nInvRoot); their quotients go
// through Z14 and Z21, which the stage's plain twiddle no longer needs.
#define SUMDIFF(X, Y) \
	VPADDQ Z23, X, Z30; \
	VPADDQ Y, X, X; \
	VPSUBQ Y, Z30, Y

#define SCALE(X, W) \
	MULLAZY(X, Z14, Z21, WBCST, W, X); \
	VPSUBQ  Z22, X, Z25; \
	VPMINUQ Z25, X, X

#define INV_LAST_SCALED \
	SUMDIFF(Z0, Z4); \
	SUMDIFF(Z1, Z5); \
	SUMDIFF(Z2, Z6); \
	SUMDIFF(Z3, Z7); \
	TWIDDLE(8(R12), Z14, Z21); \
	SCALE(Z0, 0(R12)); \
	SCALE(Z1, 0(R12)); \
	SCALE(Z2, 0(R12)); \
	SCALE(Z3, 0(R12)); \
	TWIDDLE(24(R12), Z14, Z21); \
	SCALE(Z4, 16(R12)); \
	SCALE(Z5, 16(R12)); \
	SCALE(Z6, 16(R12)); \
	SCALE(Z7, 16(R12))

// The rounds whose blocks are eight consecutive coefficients — forward
// T = 4, the transform's last round, and inverse t = 1, its first —
// take two blocks at a time, a = a0…a7 and b = b0…b7, and run the
// three stages in registers: before each stage two shuffles
// put the stage's X operands in one vector and its Y operands in the
// other, a's in lanes 0–3 and b's in lanes 4–7. Each stage reads its
// twiddles per lane straight from the table (func(view []uint64, roots
// []xmath.MulModOperand, p uint64, first int)): at gap 4 one VPERMQ
// spreads roots[i] over a's lanes and roots[i+1] over b's (R8 at
// roots[i]), and one more their quotients; at gap 2 two VPERMQs do so
// for roots[2i…2i+3] (R9 at roots[2i]); at gap 1 one VPERMT2Q picks the
// operands of the eight twiddles roots[4i…4i+7] out of their two
// vectors (R10 at roots[4i]), and one more their quotients.

// From a:b, evenQwords and oddQwords pick the pairs at gap 1:
// a0 a2 a4 a6 b0 b2 b4 b6 and a1 a3 a5 a7 b1 b3 b5 b7; from the table's
// (W, W') pairs roots[4i…4i+7], the operands and the quotients.
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

// From the pairs at gap 4, X = a0 a1 a2 a3 b0 b1 b2 b3 and
// Y = a4 a5 a6 a7 b4 b5 b6 b7, gapLo and gapHi pick the pairs at gap 2:
// a0 a1 a4 a5 b0 b1 b4 b5 and a2 a3 a6 a7 b2 b3 b6 b7.
DATA gapLo<>+0(SB)/8, $0
DATA gapLo<>+8(SB)/8, $1
DATA gapLo<>+16(SB)/8, $8
DATA gapLo<>+24(SB)/8, $9
DATA gapLo<>+32(SB)/8, $4
DATA gapLo<>+40(SB)/8, $5
DATA gapLo<>+48(SB)/8, $12
DATA gapLo<>+56(SB)/8, $13
GLOBL gapLo<>(SB), RODATA|NOPTR, $64

DATA gapHi<>+0(SB)/8, $2
DATA gapHi<>+8(SB)/8, $3
DATA gapHi<>+16(SB)/8, $10
DATA gapHi<>+24(SB)/8, $11
DATA gapHi<>+32(SB)/8, $6
DATA gapHi<>+40(SB)/8, $7
DATA gapHi<>+48(SB)/8, $14
DATA gapHi<>+56(SB)/8, $15
GLOBL gapHi<>(SB), RODATA|NOPTR, $64

// zipLo and zipHi interleave X = a0 a2 a4 a6 b0 b2 b4 b6 and
// Y = a1 a3 a5 a7 b1 b3 b5 b7 back into a and b.
DATA zipLo<>+0(SB)/8, $0
DATA zipLo<>+8(SB)/8, $8
DATA zipLo<>+16(SB)/8, $1
DATA zipLo<>+24(SB)/8, $9
DATA zipLo<>+32(SB)/8, $2
DATA zipLo<>+40(SB)/8, $10
DATA zipLo<>+48(SB)/8, $3
DATA zipLo<>+56(SB)/8, $11
GLOBL zipLo<>(SB), RODATA|NOPTR, $64

DATA zipHi<>+0(SB)/8, $4
DATA zipHi<>+8(SB)/8, $12
DATA zipHi<>+16(SB)/8, $5
DATA zipHi<>+24(SB)/8, $13
DATA zipHi<>+32(SB)/8, $6
DATA zipHi<>+40(SB)/8, $14
DATA zipHi<>+48(SB)/8, $7
DATA zipHi<>+56(SB)/8, $15
GLOBL zipHi<>(SB), RODATA|NOPTR, $64

// From the table's (W, W') pairs roots[i], roots[i+1], …, spreadW4 and
// spreadQ4 give W_i W_i W_i W_i W_i+1 W_i+1 W_i+1 W_i+1 and the same of
// the quotients; spreadW2 and spreadQ2 give W_i W_i W_i+1 W_i+1 W_i+2
// W_i+2 W_i+3 W_i+3 and their quotients.
DATA spreadW4<>+0(SB)/8, $0
DATA spreadW4<>+8(SB)/8, $0
DATA spreadW4<>+16(SB)/8, $0
DATA spreadW4<>+24(SB)/8, $0
DATA spreadW4<>+32(SB)/8, $2
DATA spreadW4<>+40(SB)/8, $2
DATA spreadW4<>+48(SB)/8, $2
DATA spreadW4<>+56(SB)/8, $2
GLOBL spreadW4<>(SB), RODATA|NOPTR, $64

DATA spreadQ4<>+0(SB)/8, $1
DATA spreadQ4<>+8(SB)/8, $1
DATA spreadQ4<>+16(SB)/8, $1
DATA spreadQ4<>+24(SB)/8, $1
DATA spreadQ4<>+32(SB)/8, $3
DATA spreadQ4<>+40(SB)/8, $3
DATA spreadQ4<>+48(SB)/8, $3
DATA spreadQ4<>+56(SB)/8, $3
GLOBL spreadQ4<>(SB), RODATA|NOPTR, $64

DATA spreadW2<>+0(SB)/8, $0
DATA spreadW2<>+8(SB)/8, $0
DATA spreadW2<>+16(SB)/8, $2
DATA spreadW2<>+24(SB)/8, $2
DATA spreadW2<>+32(SB)/8, $4
DATA spreadW2<>+40(SB)/8, $4
DATA spreadW2<>+48(SB)/8, $6
DATA spreadW2<>+56(SB)/8, $6
GLOBL spreadW2<>(SB), RODATA|NOPTR, $64

DATA spreadQ2<>+0(SB)/8, $1
DATA spreadQ2<>+8(SB)/8, $1
DATA spreadQ2<>+16(SB)/8, $3
DATA spreadQ2<>+24(SB)/8, $3
DATA spreadQ2<>+32(SB)/8, $5
DATA spreadQ2<>+40(SB)/8, $5
DATA spreadQ2<>+48(SB)/8, $7
DATA spreadQ2<>+56(SB)/8, $7
GLOBL spreadQ2<>(SB), RODATA|NOPTR, $64

// SPREAD sets W, its quotient Q and Q >> QSHIFT (QH) per lane from the
// table entries at MEM, with the index vectors WIDX and QIDX.
#define SPREAD(MEM, WIDX, QIDX, W, Q, QH) \
	VPERMQ MEM, WIDX, W; \
	VPERMQ MEM, QIDX, Q; \
	VPSRLQ QSHIFT, Q, QH

// GAP1 sets W, its quotient Q and Q >> QSHIFT (QH) per lane from the
// eight table entries at LO and HI, four each, with the index vectors
// evenQwords (Z20) and oddQwords (Z21).
#define GAP1(LO, HI, W, Q, QH) \
	VMOVDQU64 LO, W; \
	VPERMT2Q  HI, Z20, W; \
	VMOVDQU64 LO, Q; \
	VPERMT2Q  HI, Z21, Q; \
	VPSRLQ    QSHIFT, Q, QH

// PERM sets OUT to the qwords of X:Y that the index vector IDX (in
// memory or a register) picks.
#define PERM(X, Y, IDX, OUT) \
	VMOVDQU64 IDX, OUT; \
	VPERMI2Q  Y, X, OUT

// LANES_SETUP loads the view, the twiddle pointers, the constants and
// the index vectors, and sets CX to the number of times four blocks.
#define LANES_SETUP \
	MOVQ      view_base+0(FP), DI; \
	MOVQ      view_len+8(FP), CX; \
	TWIDDLE_PTRS; \
	CONSTS(p+48(FP)); \
	VMOVDQU64 spreadW4<>(SB), Z16; \
	VMOVDQU64 spreadQ4<>(SB), Z17; \
	VMOVDQU64 spreadW2<>(SB), Z18; \
	VMOVDQU64 spreadQ2<>(SB), Z19; \
	VMOVDQU64 evenQwords<>(SB), Z20; \
	VMOVDQU64 oddQwords<>(SB), Z21; \
	SHRQ      $5, CX

// LANES_NEXT steps to the next four blocks and loops to LOOP.
#define LANES_NEXT(LOOP) \
	ADDQ $256, DI; \
	ADDQ $64, R8; \
	ADDQ $128, R9; \
	ADDQ $256, R10; \
	DECQ CX; \
	JNZ  LOOP

// FWD_LAST_BODY is the forward round at T = 4 with the last-round
// processing fused: its outputs are reduced to [0, p), finalizeForward's
// values. It takes two pairs of blocks at a time, a stage of one pair
// beside the same stage of the other, so that each fills the other's
// latency: the pair at DI in Z0–Z3 with twiddles (Z9, Z8, Z15), the
// pair at DI + 128 in Z4–Z7 with (Z12, Z11, Z10); Z16–Z21 hold the
// index vectors.
#define FWD_LAST_BODY \
	LANES_SETUP; \
	JZ fwdlDone; \
fwdlQuad: \
	VMOVDQU64   0(DI), Z0; \
	VMOVDQU64   64(DI), Z1; \
	VMOVDQU64   128(DI), Z4; \
	VMOVDQU64   192(DI), Z5; \
	VSHUFI64X2  $0x44, Z1, Z0, Z2; \
	VSHUFI64X2  $0xee, Z1, Z0, Z3; \
	VSHUFI64X2  $0x44, Z5, Z4, Z6; \
	VSHUFI64X2  $0xee, Z5, Z4, Z7; \
	SPREAD(0(R8), Z16, Z17, Z9, Z8, Z15); \
	SPREAD(32(R8), Z16, Z17, Z12, Z11, Z10); \
	FWD(Z2, Z3, Z8, Z15, WVEC, Z9); \
	FWD(Z6, Z7, Z11, Z10, WVEC, Z12); \
	PERM(Z2, Z3, gapLo<>(SB), Z0); \
	PERM(Z2, Z3, gapHi<>(SB), Z1); \
	PERM(Z6, Z7, gapLo<>(SB), Z4); \
	PERM(Z6, Z7, gapHi<>(SB), Z5); \
	SPREAD(0(R9), Z18, Z19, Z9, Z8, Z15); \
	SPREAD(64(R9), Z18, Z19, Z12, Z11, Z10); \
	FWD(Z0, Z1, Z8, Z15, WVEC, Z9); \
	FWD(Z4, Z5, Z11, Z10, WVEC, Z12); \
	VPUNPCKLQDQ Z1, Z0, Z2; \
	VPUNPCKHQDQ Z1, Z0, Z3; \
	VPUNPCKLQDQ Z5, Z4, Z6; \
	VPUNPCKHQDQ Z5, Z4, Z7; \
	GAP1(0(R10), 64(R10), Z9, Z8, Z15); \
	GAP1(128(R10), 192(R10), Z12, Z11, Z10); \
	FWD(Z2, Z3, Z8, Z15, WVEC, Z9); \
	FWD(Z6, Z7, Z11, Z10, WVEC, Z12); \
	REDUCE(Z2); \
	REDUCE(Z3); \
	REDUCE(Z6); \
	REDUCE(Z7); \
	PERM(Z2, Z3, zipLo<>(SB), Z0); \
	PERM(Z2, Z3, zipHi<>(SB), Z1); \
	PERM(Z6, Z7, zipLo<>(SB), Z4); \
	PERM(Z6, Z7, zipHi<>(SB), Z5); \
	VMOVDQU64   Z0, 0(DI); \
	VMOVDQU64   Z1, 64(DI); \
	VMOVDQU64   Z4, 128(DI); \
	VMOVDQU64   Z5, 192(DI); \
	LANES_NEXT(fwdlQuad); \
fwdlDone: \
	VZEROUPPER; \
	RET

// INV_FIRST_BODY is the inverse round at t = 1, FWD_LAST_BODY's mirror
// image without the reduction.
#define INV_FIRST_BODY \
	LANES_SETUP; \
	JZ invfDone; \
invfQuad: \
	VMOVDQU64   0(DI), Z0; \
	VMOVDQU64   64(DI), Z1; \
	VMOVDQU64   128(DI), Z4; \
	VMOVDQU64   192(DI), Z5; \
	PERM(Z0, Z1, Z20, Z2); \
	PERM(Z0, Z1, Z21, Z3); \
	PERM(Z4, Z5, Z20, Z6); \
	PERM(Z4, Z5, Z21, Z7); \
	GAP1(0(R10), 64(R10), Z9, Z8, Z15); \
	GAP1(128(R10), 192(R10), Z12, Z11, Z10); \
	INV(Z2, Z3, Z8, Z15, WVEC, Z9); \
	INV(Z6, Z7, Z11, Z10, WVEC, Z12); \
	VPUNPCKLQDQ Z3, Z2, Z0; \
	VPUNPCKHQDQ Z3, Z2, Z1; \
	VPUNPCKLQDQ Z7, Z6, Z4; \
	VPUNPCKHQDQ Z7, Z6, Z5; \
	SPREAD(0(R9), Z18, Z19, Z9, Z8, Z15); \
	SPREAD(64(R9), Z18, Z19, Z12, Z11, Z10); \
	INV(Z0, Z1, Z8, Z15, WVEC, Z9); \
	INV(Z4, Z5, Z11, Z10, WVEC, Z12); \
	PERM(Z0, Z1, gapLo<>(SB), Z2); \
	PERM(Z0, Z1, gapHi<>(SB), Z3); \
	PERM(Z4, Z5, gapLo<>(SB), Z6); \
	PERM(Z4, Z5, gapHi<>(SB), Z7); \
	SPREAD(0(R8), Z16, Z17, Z9, Z8, Z15); \
	SPREAD(32(R8), Z16, Z17, Z12, Z11, Z10); \
	INV(Z2, Z3, Z8, Z15, WVEC, Z9); \
	INV(Z6, Z7, Z11, Z10, WVEC, Z12); \
	VSHUFI64X2  $0x44, Z3, Z2, Z0; \
	VSHUFI64X2  $0xee, Z3, Z2, Z1; \
	VSHUFI64X2  $0x44, Z7, Z6, Z4; \
	VSHUFI64X2  $0xee, Z7, Z6, Z5; \
	VMOVDQU64   Z0, 0(DI); \
	VMOVDQU64   Z1, 64(DI); \
	VMOVDQU64   Z4, 128(DI); \
	VMOVDQU64   Z5, 192(DI); \
	LANES_NEXT(invfQuad); \
invfDone: \
	VZEROUPPER; \
	RET

// The 64-bit kernels. MULLAZY sets OUT = IN·W − hi64(IN·W')·p mod
// 2^64, Harvey's lazy product in [0, 2p) (xmath.MulModOperand.
// MulModLazy). hi64 is exact, built from the four 32×32 products: with
// t = hi32(ll) + lh and u = lo32(t) + hl, hi64 = hh + hi32(t) +
// hi32(u). IN may be OUT.
#define MULLAZY(IN, Q, QH, FORM, W, OUT) \
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
	FORM(VPMULLQ, W, IN, OUT); \
	VPMULLQ  Z22, Z26, Z26; \
	VPSUBQ   Z26, OUT, OUT

#define QSHIFT $32

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
	INV_BODY(INV_LAST)

// func invRound8LastAVX512(view []uint64, roots []xmath.MulModOperand, p uint64, first, t int, nInv, nInvRoot xmath.MulModOperand)
TEXT ·invRound8LastAVX512(SB), NOSPLIT, $0-104
	LEAQ nInv_Operand+72(FP), R12
	INV_BODY(INV_LAST_SCALED)

// func fwdRound8LastAVX512(view []uint64, roots []xmath.MulModOperand, p uint64, first int)
TEXT ·fwdRound8LastAVX512(SB), NOSPLIT, $0-64
	FWD_LAST_BODY

// func invRound8FirstAVX512(view []uint64, roots []xmath.MulModOperand, p uint64, first int)
TEXT ·invRound8FirstAVX512(SB), NOSPLIT, $0-64
	INV_FIRST_BODY

#undef MULLAZY
#undef QSHIFT
#undef CONSTS

// The IFMA kernels, for moduli below 2^50: every input is below 4p <
// 2^52, and the table's quotients are floor(W·2^52/p)·2^12
// (xmath.NewMulModOperand52), so W' >> 12 is the 52-bit quotient.
// MULLAZY sets OUT = IN·W − hi52(IN·(W' >> 12))·p mod 2^52: the
// quotient from VPMADD52HUQ, the low words of both products from
// VPMADD52LUQ (the second multiplies by −p and adds), then the 52-bit
// mask. The result is below 2p < 2^52, so it is xmath.MulModOperand.
// MulModLazy's bit for bit. IN may be OUT.
#define MULLAZY(IN, Q, QH, FORM, W, OUT) \
	VPXORQ      Z26, Z26, Z26; \
	VPMADD52HUQ QH, IN, Z26; \
	VPXORQ      Z27, Z27, Z27; \
	FORM(VPMADD52LUQ, W, IN, Z27); \
	VPMADD52LUQ Z31, Z26, Z27; \
	VPANDQ      Z24, Z27, OUT

#define QSHIFT $12

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
	INV_BODY(INV_LAST)

// func invRound8LastIFMA(view []uint64, roots []xmath.MulModOperand, p uint64, first, t int, nInv, nInvRoot xmath.MulModOperand)
TEXT ·invRound8LastIFMA(SB), NOSPLIT, $0-104
	LEAQ nInv_Operand+72(FP), R12
	INV_BODY(INV_LAST_SCALED)

// func fwdRound8LastIFMA(view []uint64, roots []xmath.MulModOperand, p uint64, first int)
TEXT ·fwdRound8LastIFMA(SB), NOSPLIT, $0-64
	FWD_LAST_BODY

// func invRound8FirstIFMA(view []uint64, roots []xmath.MulModOperand, p uint64, first int)
TEXT ·invRound8FirstIFMA(SB), NOSPLIT, $0-64
	INV_FIRST_BODY

#undef MULLAZY
#undef CONSTS

// The IFMA-wide kernels, for moduli from 2^50 to 2^52. A lazy input y,
// below 4p, may not fit 52 bits, so MULLAZY first reduces it to [0, p)
// with min(y, y−2p) and min(y, y−p). The table's 64-bit quotient W'
// shifted right by 12 is exactly floor(W·2^52/p) (QSHIFT is 12 as for
// the IFMA kernels), so Q = hi52(y·(W' >> 12)) is at most y·W/p and
// more than y·W/p − 2, and T = y·W − Q·p lies in [0, 2p) — but 2p may
// not fit 52 bits, so T is formed whole. With p' = 2^52 − p,
// Q·p = Q·2^52 − Q·p', and
//   L = lo52(y·W) + lo52(Q·p'),  H = hi52(y·W) + hi52(Q·p'),
//   T = ((H − Q) << 52) + L
// mod 2^64, which is T itself because T < 2^53. Five VPMADD52s, and W
// is read twice, which is why the bodies pass the operand and its form
// rather than an instruction. IN may be OUT.
#define MULLAZY(IN, Q, QH, FORM, W, OUT) \
	VPSUBQ      Z23, IN, Z26; \
	VPMINUQ     Z26, IN, Z26; \
	VPSUBQ      Z22, Z26, Z27; \
	VPMINUQ     Z27, Z26, Z26; \
	VPXORQ      Z27, Z27, Z27; \
	VPMADD52HUQ QH, Z26, Z27; \
	VPXORQ      Z28, Z28, Z28; \
	FORM(VPMADD52LUQ, W, Z26, Z28); \
	VPXORQ      Z29, Z29, Z29; \
	FORM(VPMADD52HUQ, W, Z26, Z29); \
	VPMADD52LUQ Z31, Z27, Z28; \
	VPMADD52HUQ Z31, Z27, Z29; \
	VPSUBQ      Z27, Z29, Z29; \
	VPSLLQ      $52, Z29, Z29; \
	VPADDQ      Z28, Z29, OUT

// CONSTS loads p, 2p and p' = 2^52 − p.
#define CONSTS(PARG) \
	VPBROADCASTQ PARG, Z22; \
	VPADDQ       Z22, Z22, Z23; \
	MOVQ         $0x10000000000000, AX; \
	VPBROADCASTQ AX, Z31; \
	VPSUBQ       Z22, Z31, Z31

// func fwdRound8IFMAWide(view []uint64, roots []xmath.MulModOperand, p uint64, first, T int)
TEXT ·fwdRound8IFMAWide(SB), NOSPLIT, $0-72
	FWD_BODY

// func invRound8IFMAWide(view []uint64, roots []xmath.MulModOperand, p uint64, first, t int)
TEXT ·invRound8IFMAWide(SB), NOSPLIT, $0-72
	INV_BODY(INV_LAST)

// func invRound8LastIFMAWide(view []uint64, roots []xmath.MulModOperand, p uint64, first, t int, nInv, nInvRoot xmath.MulModOperand)
TEXT ·invRound8LastIFMAWide(SB), NOSPLIT, $0-104
	LEAQ nInv_Operand+72(FP), R12
	INV_BODY(INV_LAST_SCALED)

// func fwdRound8LastIFMAWide(view []uint64, roots []xmath.MulModOperand, p uint64, first int)
TEXT ·fwdRound8LastIFMAWide(SB), NOSPLIT, $0-64
	FWD_LAST_BODY

// func invRound8FirstIFMAWide(view []uint64, roots []xmath.MulModOperand, p uint64, first int)
TEXT ·invRound8FirstIFMAWide(SB), NOSPLIT, $0-64
	INV_FIRST_BODY
