package ntt

import (
	"fmt"
	"math/rand"
	"testing"

	"xehe/internal/gpu"
	"xehe/internal/xmath"
)

// roundWindows lists the views a round of the given span (2T forward,
// r*t inverse) is applied to inside a transform of n points: the whole
// row (global rounds) and, where a span fits, every SLM group — so the
// groups past the first exercise blockBase/spanBase != 0.
func roundWindows(n, span int) [][2]int {
	ws := [][2]int{{0, n}}
	if n > slmGroupElems && span <= slmGroupElems {
		for g0 := 0; g0 < n; g0 += slmGroupElems {
			ws = append(ws, [2]int{g0, g0 + slmGroupElems})
		}
	}
	return ws
}

// TestRadix8RoundsMatchGeneric runs the straight-line radix-8 rounds
// at every entry stage of an 8192-point transform, over the whole row
// and over each SLM group, against the generic loop, for moduli from
// 30 to 60 bits. Inputs span the full lazy range, and the outputs must
// stay inside it: forward [0, 4p), inverse [0, 2p).
func TestRadix8RoundsMatchGeneric(t *testing.T) {
	const n, logN, w = 8192, 13, 3
	for _, bits := range []int{30, 50, 60} {
		tbl := NewTables(n, xmath.NewModulus(xmath.GeneratePrimes(bits, 1, n)[0]))
		p := tbl.Modulus.Value
		rng := rand.New(rand.NewSource(int64(bits)))
		lazy := func(bound uint64) []uint64 {
			x := make([]uint64, n)
			for i := range x {
				x[i] = rng.Uint64() % bound
			}
			x[0], x[1] = bound-1, 0
			return x
		}
		check := func(name string, got, want []uint64, bound uint64) {
			t.Helper()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%d-bit %s: element %d = %d, generic loop gives %d", bits, name, i, got[i], want[i])
				}
				if got[i] >= bound {
					t.Fatalf("%d-bit %s: element %d = %d leaves the lazy range [0, %d)", bits, name, i, got[i], bound)
				}
			}
		}
		for s := 0; s+w <= logN; s++ {
			m, T := 1<<s, n>>(s+1)
			for _, win := range roundWindows(n, 2*T) {
				got := lazy(4 * p)
				want := append([]uint64(nil), got...)
				base := win[0] / (2 * T)
				applyRadixRound(got[win[0]:win[1]], tbl, m, T, w, base)
				genericRadixRound(want[win[0]:win[1]], tbl, m, T, w, base)
				check(fmt.Sprintf("forward m=%d T=%d blockBase=%d", m, T, base), got, want, 4*p)
			}
		}
		for s := logN; s-w >= 0; s-- {
			m, tt := 1<<s, n>>s
			span := tt << w
			for _, win := range roundWindows(n, span) {
				got := lazy(2 * p)
				want := append([]uint64(nil), got...)
				base := win[0] / span
				applyInvRadixRound(got[win[0]:win[1]], tbl, m, tt, w, base)
				genericInvRadixRound(want[win[0]:win[1]], tbl, m, tt, w, base)
				check(fmt.Sprintf("inverse m=%d t=%d spanBase=%d", m, tt, base), got, want, 2*p)
			}
		}
	}
}

// TestEngineRadix8TailRoundsMatchReference: sizes whose stage counts
// are not multiples of three make LocalRadix8 finish with a radix-4
// round (N=2048: 3+3+3+2) or open with a radix-2 global round (N=8192:
// 1 then 3+3+3+3 in two SLM groups), so radix-8 and generic rounds mix
// in one transform; both directions must still be bit-identical to
// the radix-2 oracle (ref_test.go).
func TestEngineRadix8TailRoundsMatchReference(t *testing.T) {
	const qCount, polys = 2, 2
	for _, n := range []int{2048, 8192} {
		for _, forward := range []bool{true, false} {
			data, tbls := testSetup(t, n, qCount, polys, int64(n))
			want := append([]uint64(nil), data...)
			e := NewEngine(LocalRadix8)
			qs := queues1(gpu.NewDevice1())
			for p := 0; p < polys; p++ {
				for q := 0; q < qCount; q++ {
					if forward {
						refForward(sliceOf(want, p, q, qCount, n), tbls[q])
					} else {
						refInverse(sliceOf(want, p, q, qCount, n), tbls[q])
					}
				}
			}
			if forward {
				e.Forward(qs, data, polys, tbls)
			} else {
				e.Inverse(qs, data, polys, tbls)
			}
			for i := range data {
				if data[i] != want[i] {
					t.Fatalf("n=%d forward=%v: mismatch at %d: %d != %d", n, forward, i, data[i], want[i])
				}
			}
		}
	}
}
