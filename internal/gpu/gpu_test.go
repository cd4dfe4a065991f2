package gpu

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"xehe/internal/isa"
)

func TestSpecDerivedQuantities(t *testing.T) {
	s1 := Device1Spec()
	if got := s1.SubslicesPerTile(); got != 64 {
		t.Errorf("Device1 subslices/tile = %d, want 64", got)
	}
	if got := s1.PeakSlotsPerCyclePerTile(); got != 4096 {
		t.Errorf("Device1 peak/tile = %v, want 4096", got)
	}
	if got := s1.PeakSlotsPerCycle(); got != 8192 {
		t.Errorf("Device1 peak = %v, want 8192 (2 tiles)", got)
	}
	if got := s1.ResidentItemsPerSubslice(); got != 448 {
		t.Errorf("resident items/subslice = %d, want 448", got)
	}
	knee := s1.OperationalKnee()
	if knee < 6 || knee > 7 {
		t.Errorf("Device1 knee = %.2f, want ~6.5 op/byte", knee)
	}
	s2 := Device2Spec()
	knee2 := s2.OperationalKnee()
	if knee2 < 8 || knee2 > 9.5 {
		t.Errorf("Device2 knee = %.2f, want ~8.75 op/byte", knee2)
	}
	if s2.Tiles != 1 {
		t.Errorf("Device2 must be single-tile")
	}
}

func TestMemPatternEfficiencyOrdering(t *testing.T) {
	if !(PatternUnitStride.Efficiency() > PatternStrided.Efficiency() &&
		PatternStrided.Efficiency() > PatternGather.Efficiency()) {
		t.Error("memory pattern efficiencies must be ordered unit > strided > gather")
	}
}

func TestKernelTimeBandwidthBound(t *testing.T) {
	spec := Device1Spec()
	// A pure-traffic kernel: negligible compute, lots of bytes.
	p := KernelProfile{Items: 1, GlobalBytes: 1e9, Pattern: PatternUnitStride}
	got := p.Time(&spec, isa.CompilerGenerated)
	want := 1e9/(630*0.85) + spec.KernelLaunchCycles
	if got < want*0.999 || got > want*1.001 {
		t.Errorf("bandwidth-bound time = %v, want %v", got, want)
	}
	// Split over two tiles it is faster (by the sublinear scaling).
	k := Kernel{Profile: p}
	got2 := k.Price(&spec, isa.CompilerGenerated, 2)
	if got2 >= got {
		t.Error("2-tile run must be faster for bandwidth-bound kernels")
	}
}

func TestKernelTimeComputeBound(t *testing.T) {
	spec := Device1Spec()
	var per isa.Profile
	per.Add(isa.OpMul64Lo, 100)
	p := KernelProfile{Items: 1 << 20, PerItem: per}
	tCompiler := p.Time(&spec, isa.CompilerGenerated)
	tASM := p.Time(&spec, isa.InlineASM)
	if tASM >= tCompiler {
		t.Error("inline-asm must be faster for mul-heavy compute-bound kernels")
	}
	ratio := tASM / tCompiler
	if ratio < 0.4 || ratio > 0.7 {
		t.Errorf("asm/compiler mul ratio = %.2f, want ~0.55 (Fig. 4)", ratio)
	}
}

func TestRegisterSpillPenalty(t *testing.T) {
	spec := Device1Spec()
	var per isa.Profile
	per.Add(isa.OpMul64Lo, 500)
	fits := KernelProfile{Items: 1 << 18, PerItem: per, GRFBytesPerItem: 192} // radix-8 footprint
	spills := fits
	spills.GRFBytesPerItem = 500 // > (4096-1280)/8 = 352 B/item
	tFits := fits.Time(&spec, isa.CompilerGenerated)
	tSpills := spills.Time(&spec, isa.CompilerGenerated)
	if tSpills <= tFits {
		t.Errorf("register spill must slow the kernel: %v <= %v", tSpills, tFits)
	}
}

func TestQueueInOrderTimeline(t *testing.T) {
	d := NewDevice1()
	q := d.NewQueue(0)
	p := KernelProfile{Items: 1, GlobalBytes: 1e6, Pattern: PatternUnitStride}
	e1 := q.SubmitProfile(p, isa.CompilerGenerated)
	e2 := q.SubmitProfile(p, isa.CompilerGenerated)
	if e2.Done() <= e1.Done() {
		t.Error("in-order queue must serialize submissions")
	}
	// Host clock advanced only by submit costs so far.
	if d.HostTime() >= e1.Done() {
		t.Error("async submission must not block the host")
	}
	e2.Wait()
	if d.HostTime() < e2.Done() {
		t.Error("Wait must advance host to completion")
	}
}

func TestEventDependencies(t *testing.T) {
	d := NewDevice1()
	q0 := d.NewQueue(0)
	q1 := d.NewQueue(1)
	p := KernelProfile{Items: 1, GlobalBytes: 1e7, Pattern: PatternUnitStride}
	e0 := q0.SubmitProfile(p, isa.CompilerGenerated)
	e1 := q1.SubmitProfile(p, isa.CompilerGenerated, e0)
	if e1.Done() <= e0.Done() {
		t.Error("dependent kernel on another tile must start after its dependency")
	}
}

func TestRawMallocCostAndStats(t *testing.T) {
	d := NewDevice1()
	before := d.HostTime()
	d.RawMalloc(1 << 20)
	if d.HostTime() <= before {
		t.Error("RawMalloc must cost host time")
	}
	live, peak, count := d.AllocStats()
	if live != 1<<20 || peak != 1<<20 || count != 1 {
		t.Errorf("alloc stats = %d/%d/%d, want 1MiB/1MiB/1", live, peak, count)
	}
	d.RawFree(1 << 20)
	live, _, _ = d.AllocStats()
	if live != 0 {
		t.Errorf("live after free = %d, want 0", live)
	}
}

func TestNewQueuePanicsOnBadTile(t *testing.T) {
	d := NewDevice2()
	defer func() {
		if recover() == nil {
			t.Fatal("NewQueue(1) on single-tile device did not panic")
		}
	}()
	d.NewQueue(1)
}

func TestFunctionalLaunchRunsAllGroups(t *testing.T) {
	d := NewDevice1()
	d.EnableTrace()
	q := d.NewQueue(0)
	var items int64
	k := &Kernel{
		Name:  "count",
		Range: NDRange{Global: [3]int{3, 4, 1024}, Local: 128},
		Body: func(g *GroupCtx) {
			atomic.AddInt64(&items, int64(g.Size))
		},
		Profile: KernelProfile{Pattern: PatternUnitStride},
	}
	q.Launch(k, isa.CompilerGenerated)
	if items != 3*4*1024 {
		t.Errorf("executed items = %d, want %d", items, 3*4*1024)
	}
	// The item count the profile leaves out is priced from the range.
	if tr := d.Trace(); len(tr) != 1 || tr[0].Items != 3*4*1024 || tr[0].Name != "count" {
		t.Errorf("trace = %+v, want one %q entry of %d items", tr, "count", 3*4*1024)
	}
}

// TestLaunchLeavesSharedKernelUntouched launches one descriptor whose
// profile leaves name and item count to the kernel from two goroutines
// on two queues — what the NTT engine's cached plans rely on. Under
// -race this fails if a launch writes the defaults into its argument.
func TestLaunchLeavesSharedKernelUntouched(t *testing.T) {
	d := NewDevice1()
	d.EnableTrace()
	qs := d.NewQueues()
	k := &Kernel{
		Name:    "shared",
		Range:   NDRange{Global: [3]int{2, 3, 64}},
		Profile: KernelProfile{Pattern: PatternUnitStride},
	}
	want := *k
	const launches = 50
	var wg sync.WaitGroup
	for _, q := range qs {
		wg.Add(1)
		go func(q *Queue) {
			defer wg.Done()
			for i := 0; i < launches; i++ {
				q.Launch(k, isa.InlineASM)
			}
		}(q)
	}
	wg.Wait()
	tr := d.Trace()
	if len(tr) != len(qs)*launches {
		t.Fatalf("%d trace entries, want %d", len(tr), len(qs)*launches)
	}
	for _, e := range tr {
		if e.Name != "shared" || e.Items != 2*3*64 {
			t.Fatalf("trace entry %+v, want name %q and %d items", e, "shared", 2*3*64)
		}
	}
	LaunchSplit(nil, qs, k, k.Price(&d.Spec, isa.InlineASM, len(qs)))
	if tr := d.Trace(); tr[len(tr)-1].Name != "shared" || tr[len(tr)-1].Items == 0 {
		t.Errorf("split trace entry %+v, want name %q and a share of the items", tr[len(tr)-1], "shared")
	}
	if !reflect.DeepEqual(*k, want) {
		t.Errorf("kernel changed by its launches: %+v, want %+v", *k, want)
	}
}

func TestGroupCoordinates(t *testing.T) {
	d := NewDevice2()
	q := d.NewQueue(0)
	seen := make([]int64, 2*3*4)
	k := &Kernel{
		Range: NDRange{Global: [3]int{2, 3, 256}, Local: 64},
		Body: func(g *GroupCtx) {
			if g.Base != g.Group*64 || g.Size != 64 {
				t.Errorf("group %d: base %d size %d, want %d and 64", g.Group, g.Base, g.Size, g.Group*64)
			}
			idx := (g.P*3+g.Q)*4 + g.Group
			atomic.AddInt64(&seen[idx], 1)
		},
	}
	q.Launch(k, isa.CompilerGenerated)
	for i, n := range seen {
		if n != 1 {
			t.Errorf("group %d executed %d times, want 1", i, n)
		}
	}
}

func TestLaunchSplitDividesCost(t *testing.T) {
	d := NewDevice1()
	qs := d.NewQueues()
	mk := func() *Kernel {
		return &Kernel{
			Range:   NDRange{Global: [3]int{1, 1, 1 << 16}},
			Profile: KernelProfile{GlobalBytes: 1e9, Pattern: PatternUnitStride},
		}
	}
	// Single-queue submission.
	d.Reset()
	single := d.NewQueue(0)
	e := single.Launch(mk(), isa.CompilerGenerated)
	tSingle := e.Done()

	d.Reset()
	k := mk()
	evs := LaunchSplit(nil, qs, k, k.Price(&d.Spec, isa.CompilerGenerated, len(qs)))
	var tDual Cycles
	for _, ev := range evs {
		if ev.Done() > tDual {
			tDual = ev.Done()
		}
	}
	if tDual >= tSingle {
		t.Errorf("dual-tile split (%v) must beat single tile (%v)", tDual, tSingle)
	}
	if tDual < tSingle/2.5 {
		t.Errorf("dual-tile split too good (%v vs %v): multi-queue tax missing?", tDual, tSingle)
	}
}

func TestSubgroupShuffle(t *testing.T) {
	sg := NewSubgroup(8, 2)
	for l := 0; l < 8; l++ {
		sg.Regs[l][0] = uint64(l)
		sg.Regs[l][1] = uint64(l + 8)
	}
	// Exchange with lane^4 on register 1 (stage-1 pattern of Fig. 7).
	sg.Shuffle(1, func(l int) int { return l ^ 4 })
	for l := 0; l < 8; l++ {
		if sg.Regs[l][1] != uint64((l^4)+8) {
			t.Fatalf("lane %d reg1 = %d, want %d", l, sg.Regs[l][1], (l^4)+8)
		}
		if sg.Regs[l][0] != uint64(l) {
			t.Fatalf("lane %d reg0 clobbered", l)
		}
	}
}

func TestEfficiencyMetric(t *testing.T) {
	spec := Device1Spec()
	// nominal ops == peak * cycles → efficiency 1.
	if got := Efficiency(&spec, spec.PeakSlotsPerCycle()*1000, 1000); got != 1 {
		t.Errorf("efficiency = %v, want 1", got)
	}
	if got := Efficiency(&spec, 1, 0); got != 0 {
		t.Errorf("efficiency at t=0 = %v, want 0", got)
	}
}

// Reset clears all simulated clocks and allocation statistics.
func (d *Device) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.resetClocksLocked()
	d.allocated = 0
	d.peakAlloc = 0
	d.allocs = 0
	if d.link != nil {
		d.link = &link{latency: d.link.latency, bpc: d.link.bpc}
	}
}

// Subgroup emulates an Intel GPU SIMD subgroup for the SIMD-shuffling
// NTT variants (Fig. 7/9): `width` lanes, each holding `slots*2`
// register values.
type Subgroup struct {
	Width int
	// Regs[lane][reg] mirrors the per-lane register file.
	Regs [][]uint64
}

// NewSubgroup allocates a subgroup of the given width with regs
// registers per lane.
func NewSubgroup(width, regs int) *Subgroup {
	sg := &Subgroup{Width: width, Regs: make([][]uint64, width)}
	backing := make([]uint64, width*regs)
	for l := range sg.Regs {
		sg.Regs[l] = backing[l*regs : (l+1)*regs]
	}
	return sg
}

// Shuffle replaces register reg of every lane with the value of the
// same register in lane srcLane(lane), emulating
// sg.shuffle(data[reg], tgt_idx) from the paper's Fig. 9.
func (sg *Subgroup) Shuffle(reg int, srcLane func(lane int) int) {
	tmp := make([]uint64, sg.Width)
	for l := 0; l < sg.Width; l++ {
		tmp[l] = sg.Regs[srcLane(l)][reg]
	}
	for l := 0; l < sg.Width; l++ {
		sg.Regs[l][reg] = tmp[l]
	}
}
