//go:build !amd64 || purego

package xmath

// HasAVX512 is false off amd64 and under the purego tag: the …Vector
// functions take no work and every body runs the Go loops.
func HasAVX512() bool { return false }

// HasIFMA is false off amd64 and under the purego tag.
func HasIFMA() bool { return false }

func (Modulus) innerProductPairVector(_, _ []uint64, _, _, _ [][]uint64, lo, _ int) (int, kernels) {
	return lo, goLoops
}

func (Modulus) reduceRowVector(_, _ []uint64) (int, kernels) { return 0, goLoops }

func (MulModOperand) subMulRowVector(_, _, _ []uint64, _ uint64) (int, kernels) { return 0, goLoops }

func (Modulus) addRowVector(_, _, _ []uint64) (int, kernels) { return 0, goLoops }

func (Modulus) mulAddRowVector(_, _, _, _ []uint64) (int, kernels) { return 0, goLoops }

func (Modulus) tensorRowVector(_, _, _, _, _, _, _ []uint64) (int, kernels) { return 0, goLoops }
