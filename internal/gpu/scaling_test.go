package gpu

import (
	"testing"

	"xehe/internal/isa"
)

func TestScaledSpecTileScaling(t *testing.T) {
	base := Device1Spec()
	quad := ScaledSpec(base, 4, 0.72)
	if quad.Tiles != 4 {
		t.Fatalf("tiles = %d, want 4", quad.Tiles)
	}
	// A compute-bound kernel must scale sublinearly but monotonically.
	var per isa.Profile
	per.Add(isa.OpMul64Lo, 1000)
	k := Kernel{Profile: KernelProfile{Items: 1 << 22, PerItem: per}}
	var prev Cycles
	for tiles := 1; tiles <= 4; tiles++ {
		tt := k.Price(&quad, isa.CompilerGenerated, tiles)
		if tiles > 1 {
			if tt >= prev {
				t.Fatalf("%d tiles (%v) not faster than %d (%v)", tiles, tt, tiles-1, prev)
			}
			// Sublinear: going from k-1 to k tiles must gain less than
			// the ideal 1/k factor.
			if tt < prev*float64(tiles-1)/float64(tiles)*0.98 {
				t.Fatalf("scaling superlinear at %d tiles", tiles)
			}
		}
		prev = tt
	}
}

// TestClusterFunctionalDevices pins what the multi-device scheduler in
// internal/sched builds a cluster from: devices made from different
// specs are independent (their clocks advance separately), and the
// routing weight ranks a Device1 above a Device2.
func TestClusterFunctionalDevices(t *testing.T) {
	devs := []*Device{NewDevice1(), NewDevice2()}
	p := KernelProfile{Items: 1 << 20, GlobalBytes: 1e8, Pattern: PatternUnitStride}
	devs[0].NewQueue(0).SubmitProfile(p, isa.CompilerGenerated)
	if devs[0].DeviceTime() <= 0 {
		t.Fatal("no work recorded on device 0")
	}
	if devs[1].DeviceTime() != 0 {
		t.Fatal("device 1 clock moved without work: devices are not independent")
	}
	d1, d2 := Device1Spec(), Device2Spec()
	if ClusterWeight(&d1) <= ClusterWeight(&d2) {
		t.Fatalf("ClusterWeight: Device1 (%g) must outrank Device2 (%g)",
			ClusterWeight(&d1), ClusterWeight(&d2))
	}
}

func TestMultiGPUSpec(t *testing.T) {
	duo := MultiGPUSpec(2)
	if duo.Tiles != 4 { // 2 GPUs x 2 tiles
		t.Fatalf("tiles = %d, want 4", duo.Tiles)
	}
	if duo.MultiTileScaling >= Device1Spec().MultiTileScaling {
		t.Fatal("cross-device scaling must be below on-package scaling")
	}
	if duo.MultiQueueTaxCycles <= Device1Spec().MultiQueueTaxCycles {
		t.Fatal("cross-device submission must cost more")
	}
	// All four queues must be constructible and usable.
	d := NewDevice(duo)
	qs := d.NewQueues()
	if len(qs) != 4 {
		t.Fatalf("queues = %d, want 4", len(qs))
	}
	p := KernelProfile{Items: 1 << 20, GlobalBytes: 1e8, Pattern: PatternUnitStride}
	for _, q := range qs {
		q.SubmitProfile(p, isa.CompilerGenerated)
	}
	if d.DeviceTime() <= 0 {
		t.Fatal("no work recorded")
	}
}
