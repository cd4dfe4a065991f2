package ntt

// Forward computes the in-place negacyclic NTT of x (length N) on the
// CPU with the GPU kernels' own rounds: radix-8 rounds (fwdRound8, on
// AVX-512 where the CPU has it) while three or more stages remain, one
// radix-2 or radix-4 round (the generic loop) for the rest; the last
// round does the last round processing. It is the host transform of
// the CKKS client and reference evaluator; its output is bit for bit
// that of the serial radix-2 Harvey loop (Algorithm 1, refForward in
// ref_test.go), which the tests keep as the independent oracle of
// every round and variant.
//
// The output is in bit-reversed order; Inverse consumes that order, and
// element-wise products in the transformed domain implement negacyclic
// convolution regardless of the ordering.
func Forward(x []uint64, t *Tables) {
	n := t.N
	if len(x) != n {
		panic("ntt: length mismatch")
	}
	for s := 0; s < t.LogN; {
		w := min(3, t.LogN-s)
		applyRadixRound(x, t, 1<<s, n>>(s+1), w, 0)
		s += w
	}
}

// Inverse computes the in-place inverse negacyclic NTT (Gentleman–
// Sande) with the kernels' inverse rounds, in the same radix-8-first
// order as Forward; the last round scales by n^{-1} and fully reduces
// the output to [0, p).
func Inverse(x []uint64, t *Tables) {
	n := t.N
	if len(x) != n {
		panic("ntt: length mismatch")
	}
	for s := t.LogN; s > 0; {
		w := min(3, s)
		applyInvRadixRound(x, t, 1<<s, n>>s, w, 0)
		s -= w
	}
}
