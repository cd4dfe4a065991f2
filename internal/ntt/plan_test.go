package ntt

import (
	"reflect"
	"sync"
	"testing"

	"xehe/internal/gpu"
	"xehe/internal/sycl"
	"xehe/internal/xmath"
)

// sharedTables returns qCount references to one n-point table: a plan
// reads only the size and the count of its tables.
func sharedTables(n, qCount int) []*Tables {
	tbl := NewTables(n, xmath.NewModulus(xmath.GeneratePrimes(50, 1, n)[0]))
	tbls := make([]*Tables, qCount)
	for i := range tbls {
		tbls[i] = tbl
	}
	return tbls
}

func descriptors(ks []*sycl.Kernel) []sycl.Kernel {
	out := make([]sycl.Kernel, len(ks))
	for i, k := range ks {
		out[i] = *k
	}
	return out
}

// TestPlanIsAPureFunctionOfShape is the twin test of the plan store: an
// engine that has already planned every shape of the sweep (so its map
// holds all of them, and each is served from it) must hand back, shape
// by shape, exactly the descriptors a fresh engine builds, and drive a
// device to exactly the same clocks. A key that forgot a dimension
// would serve one shape another's plan and fail here.
func TestPlanIsAPureFunctionOfShape(t *testing.T) {
	sizes := []int{1024, 4096, 32768}
	shapes := [][2]int{{1, 1}, {1, 4}, {3, 5}, {16, 9}} // polys, qCount
	tables := map[int][]*Tables{}
	for _, n := range sizes {
		tables[n] = sharedTables(n, 9)
	}
	for _, v := range AllVariants() {
		// One warm engine of each mode: a functional engine prices a
		// shape-only batch from the same plans.
		warm := []*Engine{NewAnalyticEngine(v), NewEngine(v)}
		sweep := func(f func(n, polys int, tbls []*Tables, forward bool)) {
			for _, n := range sizes {
				for _, s := range shapes {
					for _, forward := range []bool{true, false} {
						f(n, s[0], tables[n][:s[1]], forward)
					}
				}
			}
		}
		sweep(func(n, polys int, tbls []*Tables, forward bool) {
			for _, e := range warm {
				e.BuildKernels(nil, polys, tbls, forward)
			}
		})
		sweep(func(n, polys int, tbls []*Tables, forward bool) {
			fresh := NewAnalyticEngine(v)
			want := descriptors(fresh.BuildKernels(nil, polys, tbls, forward))
			if len(want) == 0 {
				t.Fatalf("%v n=%d %dx%d forward=%v: empty plan", v, n, polys, len(tbls), forward)
			}
			for _, k := range want {
				if k.Body != nil || k.Profile.Name != k.Name || k.Profile.Items == 0 {
					t.Fatalf("%v: plan entry %+v must be body-less with its profile's name and items filled", v, k)
				}
			}
			for _, e := range warm {
				if got := descriptors(e.BuildKernels(nil, polys, tbls, forward)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v n=%d %dx%d forward=%v (functional=%v):\nwarm  %+v\nfresh %+v", v, n, polys, len(tbls), forward, !e.Analytic, got, want)
				}
			}
			cold, hot := gpu.NewDevice1(), gpu.NewDevice1()
			run := func(e *Engine, dev *gpu.Device) {
				if forward {
					e.Forward(queues1(dev), nil, polys, tbls)
				} else {
					e.Inverse(queues1(dev), nil, polys, tbls)
				}
			}
			run(NewAnalyticEngine(v), cold)
			run(warm[0], hot)
			if cold.DeviceTime() != hot.DeviceTime() || cold.HostTime() != hot.HostTime() {
				t.Fatalf("%v n=%d %dx%d forward=%v: warm engine clocks (%v, %v), cold (%v, %v)", v, n, polys, len(tbls), forward,
					hot.DeviceTime(), hot.HostTime(), cold.DeviceTime(), cold.HostTime())
			}
		})
	}
}

// TestWarmTimingOnlyTransformAllocations guards the point of the plan:
// a timing-only transform of a planned shape — the matMul shape of
// fhebench.AppParams, N = 8192 and 1 × 6 rows — builds nothing. What is
// left, measured, is 3 objects: the view and one event slice per
// launched kernel (two at this shape). Rebuilding the kernels per
// transform, as the engine did before it kept plans, measured 18.
func TestWarmTimingOnlyTransformAllocations(t *testing.T) {
	const n, polys, qCount = 8192, 1, 6
	tbls := sharedTables(n, qCount)
	e := NewAnalyticEngine(LocalRadix8)
	qs := queues1(gpu.NewDevice1())
	e.ForwardView(qs, ShapeView(polys, qCount, n), tbls)
	allocs := testing.AllocsPerRun(100, func() {
		e.ForwardView(qs, ShapeView(polys, qCount, n), tbls)
	})
	if allocs > 4 {
		t.Fatalf("warm timing-only ForwardView allocates %v objects, want at most 4", allocs)
	}
}

// TestNominalOpsLeavesEngineFunctional pins that pricing a shape on a
// functional engine — NominalOps, or BuildKernels over no data, both of
// which read the plan's body-less descriptors — never leaks those into a
// real transform of the same shape: a kernel launched without its body
// fails silently, the transform just does not happen. NominalOps used
// to flip Analytic on the receiver; the concurrent half fails under
// -race if it writes to the engine again.
func TestNominalOpsLeavesEngineFunctional(t *testing.T) {
	const n, qCount, polys = 4096, 2, 2
	spec := gpu.Device1Spec()
	for _, v := range AllVariants() {
		data, tbls := testSetup(t, n, qCount, polys, int64(40+v))
		want := append([]uint64(nil), data...)
		for p := 0; p < polys; p++ {
			for q := 0; q < qCount; q++ {
				Forward(sliceOf(want, p, q, qCount, n), tbls[q])
			}
		}
		e := NewEngine(v)
		ops := e.NominalOps(&spec, polys, tbls, true)
		if fresh := NewAnalyticEngine(v).NominalOps(&spec, polys, tbls, true); ops != fresh || ops == 0 {
			t.Fatalf("%v: NominalOps %v on a functional engine, %v on a timing-only one", v, ops, fresh)
		}
		for _, k := range e.BuildKernels(nil, polys, tbls, true) {
			if k.Body != nil {
				t.Fatalf("%v: kernel %s built over no data has a body", v, k.Name)
			}
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.NominalOps(&spec, polys, tbls, true)
		}()
		e.Forward(queues1(gpu.NewDevice1()), data, polys, tbls)
		wg.Wait()
		for i := range data {
			if data[i] != want[i] {
				t.Fatalf("%v: forward after NominalOps mismatches the reference at %d: %d != %d", v, i, data[i], want[i])
			}
		}
		// The shape-only list prices; it must not run as a transform.
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%v: functional Forward over no data did not panic", v)
				}
			}()
			e.Forward(queues1(gpu.NewDevice1()), nil, polys, tbls)
		}()
	}
}
