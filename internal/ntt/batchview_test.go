package ntt

import (
	"math/rand"
	"testing"

	"xehe/internal/gpu"
	"xehe/internal/xmath"
)

// sliceOf returns the (p, q) slice of a contiguous flat batch.
func sliceOf(data []uint64, p, q, qCount, n int) []uint64 {
	off := (p*qCount + q) * n
	return data[off : off+n]
}

// viewFixture builds tables, a contiguous reference batch and a
// scattered BatchView (every row its own allocation) with identical
// contents.
func viewFixture(t testing.TB, n, polys, qCount int, seed int64) ([]*Tables, []uint64, *BatchView) {
	t.Helper()
	primes := xmath.GeneratePrimes(50, qCount, n)
	tbls := make([]*Tables, qCount)
	for q, p := range primes {
		tbls[q] = NewTables(n, xmath.NewModulus(p))
	}
	rng := rand.New(rand.NewSource(seed))
	flat := make([]uint64, polys*qCount*n)
	view := NewBatchView(polys, qCount, n)
	for p := 0; p < polys; p++ {
		for q := 0; q < qCount; q++ {
			row := make([]uint64, n) // deliberately non-contiguous
			s := sliceOf(flat, p, q, qCount, n)
			for i := range row {
				v := rng.Uint64() % tbls[q].Modulus.Value
				row[i] = v
				s[i] = v
			}
			view.SetRow(p, q, row)
		}
	}
	return tbls, flat, view
}

// TestBatchViewMatchesContiguous pins the fusion contract of the view
// path: ForwardView/InverseView over rows scattered across separate
// allocations produce bit-for-bit the same transforms as the classic
// contiguous Forward/Inverse, for every variant.
func TestBatchViewMatchesContiguous(t *testing.T) {
	const n, polys, qCount = 1 << 9, 3, 2
	for _, v := range AllVariants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			tbls, flat, view := viewFixture(t, n, polys, qCount, int64(100+v))
			q := queues1(gpu.NewDevice1())
			e := NewEngine(v)

			compare := func(phase string) {
				t.Helper()
				for p := 0; p < polys; p++ {
					for qi := 0; qi < qCount; qi++ {
						want := sliceOf(flat, p, qi, qCount, n)
						got := view.Row(p, qi)
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s row (%d,%d)[%d]: view %d vs contiguous %d", phase, p, qi, i, got[i], want[i])
							}
						}
					}
				}
			}

			e.Forward(q, flat, polys, tbls)
			e.ForwardView(q, view, tbls, nil)
			compare("forward")

			e.Inverse(q, flat, polys, tbls)
			e.InverseView(q, view, tbls, nil)
			compare("inverse")
		})
	}
}

// TestBatchViewKernelPlan pins the fusion economics: a k-poly view
// launches exactly as many kernels as a 1-poly batch (launch overhead
// is per transform round, not per poly), and the same count as the
// contiguous path of equal shape.
func TestBatchViewKernelPlan(t *testing.T) {
	const n, qCount = 1 << 12, 3
	for _, v := range AllVariants() {
		e := NewEngine(v)
		tbls, _, view := viewFixture(t, n, 4, qCount, int64(7+v))
		one := len(e.BuildKernels(nil, 1, tbls, true))
		k4 := len(e.BuildKernelsView(view, tbls, true))
		flat4 := len(e.BuildKernels(nil, 4, tbls, true))
		if one == 0 || k4 != one || flat4 != one {
			t.Fatalf("%v: kernel counts 1-poly=%d view4=%d flat4=%d; want all equal and nonzero", v, one, k4, flat4)
		}
	}
}

// TestBatchViewChecks pins the guard rails: unset rows, short rows and
// mismatched shapes panic before a functional launch touches memory.
func TestBatchViewChecks(t *testing.T) {
	const n = 1 << 9
	tbls, _, _ := viewFixture(t, n, 1, 2, 3)
	q := queues1(gpu.NewDevice1())
	e := NewEngine(LocalRadix8)

	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("unset row", func() {
		v := NewBatchView(1, 2, n)
		v.SetRow(0, 0, make([]uint64, n))
		e.ForwardView(q, v, tbls, nil) // row (0,1) missing
	})
	expectPanic("short row", func() {
		v := NewBatchView(1, 2, n)
		v.SetRow(0, 0, make([]uint64, 10))
	})
	expectPanic("tables mismatch", func() {
		v := NewBatchView(1, 1, n)
		v.SetRow(0, 0, make([]uint64, n))
		e.ForwardView(q, v, tbls, nil) // 2 tables vs 1 column
	})
}
