//go:build !purego

package xmath

// avx512 reports whether the AVX-512 bodies (vector_amd64.s, and
// internal/ntt's) may run: the CPU has AVX-512F and AVX-512DQ and the
// OS saves the opmask and ZMM state. ifma adds AVX-512 IFMA, the 52-bit
// multiply-adds of the IFMA bodies here and in internal/ntt. Both are
// checked once, at start-up.
var avx512, ifma = detectAVX512()

// HasAVX512 reports whether this package's vector bodies, and
// internal/ntt's, run on this host. It is false under the purego tag
// and off amd64.
func HasAVX512() bool { return avx512 }

// HasIFMA reports whether the IFMA bodies, this package's and
// internal/ntt's, run on this host: HasAVX512 and the CPU has AVX-512
// IFMA. It is false under the purego tag and off amd64.
func HasIFMA() bool { return ifma }

func detectAVX512() (bool, bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	const osxsave = 1 << 27
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 {
		return false, false
	}
	// XCR0: SSE, AVX, opmask, upper halves of Z0–Z15 and Z16–Z31.
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xgetbv0()&zmmState != zmmState {
		return false, false
	}
	const avx512f, avx512dq, avx512ifma = 1 << 16, 1 << 17, 1 << 21
	_, b, _, _ := cpuid(7, 0)
	f := b&avx512f != 0 && b&avx512dq != 0
	return f, f && b&avx512ifma != 0
}

// vectorTerms is how many terms the vector inner products sum before
// their 64-bit partial sums could wrap: a product of two 30-bit halves
// (the 64-bit body) is below 2^60, and 16 of them stay below 2^64; a
// low half lo52 is below 2^52 and 16 stay below 2^56, a high half below
// 2^48 under the IFMA body's moduli and 16 stay below 2^52, as its
// fold needs (newBarrett52).
const vectorTerms = 16

// rowKernels picks the family that runs a row: the IFMA bodies where
// the CPU has IFMA and the modulus takes them (ifmaOK: newBarrett52
// built its constants, or takesIFMA holds for SubMulRow's bare p), the
// 64-bit bodies otherwise, and none without AVX-512.
func rowKernels(ifmaOK bool) kernels {
	switch {
	case !avx512:
		return goLoops
	case ifmaRows && ifmaOK:
		return ifmaKernels
	}
	return avx512Kernels
}

// innerProductPairVector runs InnerProductPair on the family
// rowKernels picks over the longest prefix of [lo, hi) that is a
// multiple of sixteen long (the kernels walk two columns of eight at a
// time), and returns where the Go loop takes over and the family that
// ran: lo itself and goLoops without AVX-512, or with more than
// vectorTerms terms.
func (m Modulus) innerProductPairVector(out0, out1 []uint64, d, b, a [][]uint64, lo, hi int) (int, kernels) {
	n := (hi - lo) &^ 15
	k := rowKernels(m.ifma.ratio != 0)
	if k == goLoops || len(d) > vectorTerms || n <= 0 {
		return lo, goLoops
	}
	end := lo + n
	_, _ = out0[lo:end], out1[lo:end]
	b, a = b[:len(d)], a[:len(d)]
	for i := range d {
		_, _, _ = d[i][lo:end], b[i][lo:end], a[i][lo:end]
	}
	if k == ifmaKernels {
		innerProductPairIFMA(out0, out1, d, b, a, lo, end, m.Value, m.ifma)
	} else {
		innerProductPairAVX512(out0, out1, d, b, a, lo, end, m.Value, m.ConstRatio[0], m.ConstRatio[1])
	}
	return end, k
}

// reduceRowVector runs ReduceRow on the family rowKernels picks over
// the longest prefix of src that is a multiple of eight long and
// returns its length (0 without AVX-512) and the family. dst is at
// least as long as src.
func (m Modulus) reduceRowVector(dst, src []uint64) (int, kernels) {
	k := rowKernels(m.ifma.ratio != 0)
	n := len(src) &^ 7
	switch k {
	case goLoops:
		return 0, k
	case ifmaKernels:
		reduceRowIFMA(dst[:n], src[:n], m.Value, m.ifma)
	default:
		reduceRowAVX512(dst[:n], src[:n], m.Value, m.ConstRatio[1])
	}
	return n, k
}

// subMulRowVector runs SubMulRow on the family rowKernels picks over
// the longest prefix of dst that is a multiple of eight long and
// returns its length (0 without AVX-512) and the family. a, and add
// when not nil, are as long as dst.
func (op MulModOperand) subMulRowVector(dst, a, add []uint64, p uint64) (int, kernels) {
	k := rowKernels(takesIFMA(p))
	n := len(dst) &^ 7
	if add != nil {
		add = add[:n]
	}
	switch k {
	case goLoops:
		return 0, k
	case ifmaKernels:
		subMulRowIFMA(dst[:n], a[:n], add, p, op.Operand, op.Quotient)
	default:
		subMulRowAVX512(dst[:n], a[:n], add, p, op.Operand, op.Quotient)
	}
	return n, k
}

// addRowVector, mulAddRowVector and tensorRowVector run AddRow,
// MulAddRow and TensorRow on the family rowKernels picks over the
// longest prefix of the first row that is a multiple of eight long and
// return its length (0 without AVX-512) and the family. The other rows
// are as long as the first, add too when it is not nil. The add has no
// product, so one body serves both families.
func (m Modulus) addRowVector(dst, a, b []uint64) (int, kernels) {
	if !avx512 {
		return 0, goLoops
	}
	n := len(dst) &^ 7
	addRowAVX512(dst[:n], a[:n], b[:n], m.Value)
	return n, avx512Kernels
}

func (m Modulus) mulAddRowVector(dst, a, b, add []uint64) (int, kernels) {
	k := rowKernels(m.ifma.ratio != 0)
	n := len(dst) &^ 7
	if add != nil {
		add = add[:n]
	}
	switch k {
	case goLoops:
		return 0, k
	case ifmaKernels:
		mulAddRowIFMA(dst[:n], a[:n], b[:n], add, m.Value, m.ifma)
	default:
		mulAddRowAVX512(dst[:n], a[:n], b[:n], add, m.Value, m.ConstRatio[0], m.ConstRatio[1])
	}
	return n, k
}

func (m Modulus) tensorRowVector(d0, d1, d2, a0, a1, b0, b1 []uint64) (int, kernels) {
	k := rowKernels(m.ifma.ratio != 0)
	n := len(d0) &^ 7
	switch k {
	case goLoops:
		return 0, k
	case ifmaKernels:
		tensorRowIFMA(d0[:n], d1[:n], d2[:n], a0[:n], a1[:n], b0[:n], b1[:n], m.Value, m.ifma)
	default:
		tensorRowAVX512(d0[:n], d1[:n], d2[:n], a0[:n], a1[:n], b0[:n], b1[:n], m.Value, m.ConstRatio[0], m.ConstRatio[1])
	}
	return n, k
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv0() uint32

// The kernels take what the functions above have bounds-checked: every
// row and both outputs reach end, d, b and a have the same number of
// terms (at most vectorTerms), end − lo is a multiple of sixteen and
// len(src) and len(dst) (len(d0) for the tensor) of eight, and the
// rows beside dst, src and d0 are as long (add may be empty: no
// addend). The …IFMA kernels also need a modulus newBarrett52 admits
// and its constants.

//go:noescape
func innerProductPairAVX512(out0, out1 []uint64, d, b, a [][]uint64, lo, end int, p, r0, r1 uint64)

//go:noescape
func reduceRowAVX512(dst, src []uint64, p, r1 uint64)

//go:noescape
func subMulRowAVX512(dst, a, add []uint64, p, w, wq uint64)

//go:noescape
func addRowAVX512(dst, a, b []uint64, p uint64)

//go:noescape
func mulAddRowAVX512(dst, a, b, add []uint64, p, r0, r1 uint64)

//go:noescape
func tensorRowAVX512(d0, d1, d2, a0, a1, b0, b1 []uint64, p, r0, r1 uint64)

//go:noescape
func innerProductPairIFMA(out0, out1 []uint64, d, b, a [][]uint64, lo, end int, p uint64, k barrett52)

//go:noescape
func reduceRowIFMA(dst, src []uint64, p uint64, k barrett52)

//go:noescape
func subMulRowIFMA(dst, a, add []uint64, p, w, wq uint64)

//go:noescape
func mulAddRowIFMA(dst, a, b, add []uint64, p uint64, k barrett52)

//go:noescape
func tensorRowIFMA(d0, d1, d2, a0, a1, b0, b1 []uint64, p uint64, k barrett52)
