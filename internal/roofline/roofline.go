// Package roofline reproduces the paper's roofline analysis
// (Section IV-B, Fig. 15): operational density of every NTT variant,
// the device's int64 compute roof and global-memory-bandwidth roof,
// and each variant's achieved throughput.
package roofline

import (
	"xehe/internal/gpu"
	"xehe/internal/isa"
	"xehe/internal/ntt"
	"xehe/internal/sycl"
)

// Point is one NTT variant on the roofline plot.
type Point struct {
	Variant ntt.Variant
	// Density is nominal int64 ops per byte of global traffic.
	Density float64
	// RooflineGIOPS is min(peak, density*bandwidth): the roof at this
	// density.
	RooflineGIOPS float64
	// AchievedGIOPS is the simulated throughput of the variant at the
	// given configuration.
	AchievedGIOPS float64
	// Bound reports the limiting resource at this density.
	Bound string
}

// Model computes roofline points for all variants at a given
// transform size and batch, on `tiles` tiles of the device.
type Model struct {
	Spec  gpu.DeviceSpec
	Tiles int
}

// Density returns the operational density of one forward transform
// under the variant's schedule: total nominal ALU ops over total
// global-memory bytes. For N = 32K this reproduces the paper's
// numbers: naive ≈ 1.5 op/byte, SLM radix-8 ≈ 8.9 op/byte.
func (m *Model) Density(v ntt.Variant, n int, tbls []*ntt.Tables) float64 {
	e := ntt.NewEngine(v)
	var ops, bytes float64
	for _, k := range e.BuildKernels(nil, 1, tbls, true) {
		ops += k.Profile.NominalOps(&m.Spec)
		bytes += k.Profile.GlobalBytes
	}
	return ops / bytes
}

// Point measures one variant at the given batch configuration.
func (m *Model) Point(v ntt.Variant, n, rns, instances int, tbls []*ntt.Tables, asm bool) Point {
	spec := m.Spec
	density := m.Density(v, n, tbls)

	peak := spec.PeakSlotsPerCyclePerTile() * spec.EffectiveTiles(m.Tiles) * spec.ClockGHz
	bw := spec.GlobalBytesPerCyclePerTile * spec.EffectiveTiles(m.Tiles) * spec.ClockGHz
	roof := density * bw * gpu.PatternUnitStride.Efficiency()
	bound := "memory"
	if roof > peak {
		roof = peak
		bound = "compute"
	}

	cg := isa.CompilerGenerated
	if asm {
		cg = isa.InlineASM
	}
	batch := make([]*ntt.Tables, rns)
	for i := range batch {
		batch[i] = tbls[0]
	}
	cycles, nominal := Run(spec, v, cg, m.Tiles, instances, batch)
	achieved := nominal / cycles * spec.ClockGHz // ops/cycle * GHz = GIOPS
	return Point{Variant: v, Density: density, RooflineGIOPS: roof, AchievedGIOPS: achieved, Bound: bound}
}

// Run simulates one batched, timing-only forward transform of
// `instances` polynomials over tbls (one entry per RNS modulus) on a
// fresh device, split over every tile when tiles > 1 and the device
// has more than one. It returns the transform's simulated cycles and
// the variant's nominal op count: the one measurement behind Fig. 15's
// achieved throughput and the efficiency and speed-up figures.
func Run(spec gpu.DeviceSpec, v ntt.Variant, cg isa.CodeGen, tiles, instances int, tbls []*ntt.Tables) (cycles, nominal float64) {
	dev := gpu.NewDevice(spec)
	var qs []*sycl.Queue
	if tiles > 1 && spec.Tiles > 1 {
		qs = sycl.NewQueuesAllTiles(dev, cg)
	} else {
		qs = []*sycl.Queue{sycl.NewQueue(dev, cg)}
	}
	e := ntt.NewEngine(v)
	for _, ev := range e.Forward(qs, nil, instances, tbls) {
		cycles = max(cycles, ev.Done())
	}
	return cycles, e.NominalOps(&spec, instances, tbls, true)
}
