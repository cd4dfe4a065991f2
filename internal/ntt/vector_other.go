//go:build !amd64 || purego

package ntt

// vectorRounds is false off amd64 and under the purego tag: the
// …Vector functions take no work and every round runs the Go loops.
const vectorRounds = false

func fwdRound8Vector([]uint64, *Tables, int, int) kernels { return goLoops }

func invRound8Vector([]uint64, *Tables, int, int) kernels { return goLoops }
