package ntt

import (
	"reflect"
	"sync"
	"testing"

	"xehe/internal/gpu"
	"xehe/internal/isa"
	"xehe/internal/race"
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
		warm := NewEngine(v)
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
			warm.BuildKernels(nil, polys, tbls, forward)
		})
		sweep(func(n, polys int, tbls []*Tables, forward bool) {
			fresh := NewEngine(v)
			want := descriptors(fresh.BuildKernels(nil, polys, tbls, forward))
			if len(want) == 0 {
				t.Fatalf("%v n=%d %dx%d forward=%v: empty plan", v, n, polys, len(tbls), forward)
			}
			for _, k := range want {
				if k.Body != nil || k.Profile.Name != k.Name || k.Profile.Items == 0 {
					t.Fatalf("%v: plan entry %+v must be body-less with its profile's name and items filled", v, k)
				}
			}
			if got := descriptors(warm.BuildKernels(nil, polys, tbls, forward)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v n=%d %dx%d forward=%v:\nwarm  %+v\nfresh %+v", v, n, polys, len(tbls), forward, got, want)
			}
			cold, hot := gpu.NewDevice1(), gpu.NewDevice1()
			run := func(e *Engine, dev *gpu.Device) {
				if forward {
					e.Forward(queues1(dev), nil, polys, tbls)
				} else {
					e.Inverse(queues1(dev), nil, polys, tbls)
				}
			}
			run(NewEngine(v), cold)
			run(warm, hot)
			if cold.DeviceTime() != hot.DeviceTime() || cold.HostTime() != hot.HostTime() {
				t.Fatalf("%v n=%d %dx%d forward=%v: warm engine clocks (%v, %v), cold (%v, %v)", v, n, polys, len(tbls), forward,
					hot.DeviceTime(), hot.HostTime(), cold.DeviceTime(), cold.HostTime())
			}
		})
	}
}

// TestWarmTimingOnlyTransformAllocations guards the point of the plan:
// a warm timing-only transform of a planned shape — the matMul shape of
// fhebench.AppParams, N = 8192 and 1 × 6 rows — on one queue, with the
// caller lending its pipeline tail, allocates nothing. Rebuilding the
// kernels per transform, as the engine did before it kept plans,
// measured 18 objects; one event slice per launched kernel and the
// plan lookup's lock-and-key measured 2 more per transform.
func TestWarmTimingOnlyTransformAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	const n, polys, qCount = 8192, 1, 6
	tbls := sharedTables(n, qCount)
	e := NewEngine(LocalRadix8)
	qs := queues1(gpu.NewDevice1())
	view := ShapeView(polys, qCount, n)
	tail := e.InverseView(qs, view, tbls, e.ForwardView(qs, view, tbls, nil))
	allocs := testing.AllocsPerRun(100, func() {
		tail = e.ForwardView(qs, view, tbls, tail, tail...)
		tail = e.InverseView(qs, view, tbls, tail, tail...)
	})
	if allocs != 0 {
		t.Fatalf("warm timing-only ForwardView + InverseView allocate %v objects, want 0", allocs)
	}
}

// queueSets returns the two launch configurations of a device: one
// queue, and a dual-tile split — one queue per tile, or two queues
// contending on the only tile of a single-tile device.
func queueSets(dev *gpu.Device, cg isa.CodeGen) [][]*sycl.Queue {
	split := []*sycl.Queue{sycl.NewQueueOnTile(dev, 0, cg, true), sycl.NewQueueOnTile(dev, dev.Spec.Tiles-1, cg, true)}
	return [][]*sycl.Queue{{sycl.NewQueue(dev, cg)}, split}
}

// storedPrices returns what p has stored for a launch over qs, without
// pricing anything.
func storedPrices(p *plan, qs []*sycl.Queue) []gpu.Cycles {
	if all := p.prices.Load(); all != nil {
		for _, pp := range *all {
			if pp.spec == &qs[0].Device().Spec && pp.cg == qs[0].CodeGen() && pp.split == len(qs) {
				return pp.cycles
			}
		}
	}
	return nil
}

// TestPlanPricesAreExact pins the price store: after a transform, every
// plan entry has, for each device × codegen × (one queue, dual-tile
// split) it ran under, a stored price equal with == to a fresh
// KernelProfile.Time of the share one submission carries, and the
// transform's commands were submitted at exactly those prices.
func TestPlanPricesAreExact(t *testing.T) {
	tables := map[int][]*Tables{1024: sharedTables(1024, 5), 32768: sharedTables(32768, 5)}
	for _, v := range AllVariants() {
		e := NewEngine(v)
		for n, tbls := range tables {
			for _, s := range [][2]int{{1, 1}, {3, 5}} {
				for _, forward := range []bool{true, false} {
					for _, spec := range []gpu.DeviceSpec{gpu.Device1Spec(), gpu.Device2Spec()} {
						for _, cg := range []isa.CodeGen{isa.CompilerGenerated, isa.InlineASM} {
							// One queue, then the dual-tile split, each on a fresh device.
							for k := range 2 {
								dev := gpu.NewDevice(spec)
								dev.EnableTrace()
								qs := queueSets(dev, cg)[k]
								run := e.Forward
								if !forward {
									run = e.Inverse
								}
								run(qs, nil, s[0], tbls[:s[1]])
								p := e.plan(n, s[0], s[1], forward)
								stored, trace := storedPrices(p, qs), dev.Trace()
								if len(stored) != len(p.kernels) || len(trace) != len(p.kernels)*len(qs) {
									t.Fatalf("%v n=%d %v: %d prices stored, %d commands, for %d kernels on %d queues", v, n, s, len(stored), len(trace), len(p.kernels), len(qs))
								}
								for i, k := range p.kernels {
									share := k.Profile
									if split := len(qs); split > 1 {
										eff := dev.Spec.EffectiveTiles(split)
										share.Items = int(float64(share.Items)/eff) + 1
										share.GlobalBytes /= eff
										share.SLMBytes /= eff
									}
									if fresh := share.Time(&dev.Spec, cg); stored[i] != fresh {
										t.Fatalf("%v n=%d %v forward=%v on %s/%v/%d queues: kernel %d stored at %v, priced fresh at %v", v, n, s, forward, spec.Name, cg, len(qs), i, stored[i], fresh)
									}
									for j := range qs {
										if c := trace[i*len(qs)+j].Cycles; c != stored[i] {
											t.Fatalf("%v: kernel %d submitted at %v, stored at %v", v, i, c, stored[i])
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestSharedEnginePricesPerDevice launches one warm engine's plans from
// two goroutines at once, one on a Device1 queue and one on a Device2
// queue, each device fresh so both fill their prices concurrently. Each
// device's clocks must equal a serial run on a fresh engine: a price
// stored per plan entry alone would hand one device the other's, and
// under -race an unsynchronized first fill fails.
func TestSharedEnginePricesPerDevice(t *testing.T) {
	const n, qCount = 4096, 3
	tbls := sharedTables(n, qCount)
	specs := []gpu.DeviceSpec{gpu.Device1Spec(), gpu.Device2Spec()}
	drive := func(e *Engine, dev *gpu.Device) {
		qs := queues1(dev)
		for polys := 1; polys <= 3; polys++ {
			e.Inverse(qs, nil, polys, tbls, e.Forward(qs, nil, polys, tbls)...)
		}
	}
	clocks := func(d *gpu.Device) [2]gpu.Cycles { return [2]gpu.Cycles{d.DeviceTime(), d.HostTime()} }
	var want [2][2]gpu.Cycles
	for i, spec := range specs {
		dev := gpu.NewDevice(spec)
		drive(NewEngine(LocalRadix8), dev)
		want[i] = clocks(dev)
	}
	shared := NewEngine(LocalRadix8)
	drive(shared, gpu.NewDevice1()) // every plan built, priced for another device only
	for round := 0; round < 20; round++ {
		devs := []*gpu.Device{gpu.NewDevice(specs[0]), gpu.NewDevice(specs[1])}
		var wg sync.WaitGroup
		for _, dev := range devs {
			wg.Add(1)
			go func(dev *gpu.Device) {
				defer wg.Done()
				drive(shared, dev)
			}(dev)
		}
		wg.Wait()
		for i, dev := range devs {
			if got := clocks(dev); got != want[i] {
				t.Fatalf("round %d: %s on the shared engine reads (device, host) %v, serially on a fresh engine %v", round, specs[i].Name, got, want[i])
			}
		}
	}
}

// TestNominalOpsLeavesEngineFunctional pins that pricing a shape —
// NominalOps, or BuildKernels over no data, both of which read the
// plan's body-less descriptors — never leaks those into a real transform
// of the same shape on the same engine: a kernel launched without its
// body fails silently, the transform just does not happen. The
// concurrent half fails under -race if pricing writes to the engine.
func TestNominalOpsLeavesEngineFunctional(t *testing.T) {
	const n, qCount, polys = 4096, 2, 2
	spec := gpu.Device1Spec()
	for _, v := range AllVariants() {
		data, tbls := testSetup(t, n, qCount, polys, primeClass{bits: 50}, int64(40+v))
		want := append([]uint64(nil), data...)
		for p := 0; p < polys; p++ {
			for q := 0; q < qCount; q++ {
				refForward(sliceOf(want, p, q, qCount, n), tbls[q])
			}
		}
		e := NewEngine(v)
		ops := e.NominalOps(&spec, polys, tbls, true)
		if fresh := NewEngine(v).NominalOps(&spec, polys, tbls, true); ops != fresh || ops == 0 {
			t.Fatalf("%v: NominalOps %v, %v on a fresh engine", v, ops, fresh)
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
	}
}
