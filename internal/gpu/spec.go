// Package gpu simulates the Intel GPU hardware that the paper targets.
//
// The simulator is dual-mode:
//
//   - Functional: kernels are real Go functions executed over an
//     ND-range by a worker pool (work-groups run concurrently, SLM is a
//     per-group slice, subgroup shuffles are emulated exactly), so every
//     result is bit-checkable against a serial oracle.
//
//   - Analytic: every kernel carries a KernelProfile (ALU op mix,
//     global/SLM traffic, barriers, register footprint) and the device
//     converts profiles into simulated cycles using an architecture
//     model of EUs, subslices, shared local memory, and global memory
//     bandwidth. All figures in the paper are regenerated from these
//     simulated times, exactly as the paper reports normalized time and
//     % of int64 peak.
//
// The two devices below stand in for the paper's undisclosed "Device1"
// (multi-tile) and "Device2" (smaller, single-tile). Their parameters
// are synthetic but architecturally faithful to Intel Gen/Xe GPUs
// (Section II-D): 8 EUs per subslice, 7 hardware threads per EU with a
// 4 KB GRF each, SIMD-8 execution, 64 KB SLM per subslice.
package gpu

import "xehe/internal/isa"

// DeviceSpec captures the architectural parameters of a simulated GPU.
type DeviceSpec struct {
	Name string

	// Compute hierarchy.
	Tiles          int // independent tiles (explicit multi-queue targets)
	EUsPerTile     int
	EUsPerSubslice int // 8 on Gen11/Xe
	ThreadsPerEU   int // 7 simultaneous hardware threads
	SIMDWidth      int // work-items per EU thread (SIMD-8)

	// Storage hierarchy.
	GRFBytesPerThread   int // 4 KB general register file per EU thread
	GRFReservedBytes    int // registers the compiler keeps for itself
	SLMBytesPerSubslice int // 64 KB shared local memory

	// Clock.
	ClockGHz float64

	// Memory system (per cycle).
	GlobalBytesPerCyclePerTile  float64 // DRAM bandwidth seen by one tile
	SLMBytesPerCyclePerSubslice float64
	PCIeBytesPerCycle           float64 // host<->device copies

	// Fixed overheads, in device cycles.
	KernelLaunchCycles  float64 // dispatch latency per kernel
	HostSubmitCycles    float64 // host-side cost to enqueue (async path)
	HostSyncCycles      float64 // host-device synchronization (event wait)
	MultiQueueTaxCycles float64 // extra per-kernel cost of explicit
	// multi-queue (multi-tile) submission
	AllocBaseCycles  float64 // driver cost of a device allocation
	AllocPerKBCycles float64
	BarrierCycles    float64 // work-group barrier drain

	// MultiTileScaling is the marginal throughput of each additional
	// tile under explicit multi-queue submission (shared memory
	// subsystem + cross-queue scheduling losses); EffectiveTiles turns
	// it into a tile count. Calibrated to the paper's dual-tile step
	// (+49.5%-78.2%, Fig. 14b).
	MultiTileScaling float64

	// ISA cost tables (compiler vs inline-asm codegen).
	Costs *isa.DeviceCosts
}

// SubslicesPerTile returns the subslice count of one tile.
func (s *DeviceSpec) SubslicesPerTile() int { return s.EUsPerTile / s.EUsPerSubslice }

// PeakSlotsPerCyclePerTile is the issue-rate peak: every EU issues one
// SIMD-wide int64 ALU instruction per cycle.
func (s *DeviceSpec) PeakSlotsPerCyclePerTile() float64 {
	return float64(s.EUsPerTile * s.SIMDWidth)
}

// EffectiveTiles is the sublinear throughput of tiles tiles under
// explicit multi-queue submission, in units of one tile: the one
// multi-tile scaling rule, behind both the split price of a kernel
// (Kernel.Price) and the roofline's roofs.
func (s *DeviceSpec) EffectiveTiles(tiles int) float64 {
	return 1 + s.MultiTileScaling*float64(tiles-1)
}

// PeakSlotsPerCycle is the whole-device int64 peak (all tiles). The
// paper's "efficiency" percentages are measured against this number.
func (s *DeviceSpec) PeakSlotsPerCycle() float64 {
	return s.PeakSlotsPerCyclePerTile() * float64(s.Tiles)
}

// PeakGIOPS returns the device peak in units of 10^9 int64 ops/s.
func (s *DeviceSpec) PeakGIOPS() float64 {
	return s.PeakSlotsPerCycle() * s.ClockGHz
}

// ResidentItemsPerSubslice is the number of work-items that can be
// resident (and thus barrier-synchronized cheaply) on one subslice.
func (s *DeviceSpec) ResidentItemsPerSubslice() int {
	return s.EUsPerSubslice * s.ThreadsPerEU * s.SIMDWidth
}

// OperationalKnee returns the operational density (int64 op/byte) at
// which a single tile transitions from bandwidth-bound to
// compute-bound — the roofline knee of Fig. 15.
func (s *DeviceSpec) OperationalKnee() float64 {
	return s.PeakSlotsPerCyclePerTile() / s.GlobalBytesPerCyclePerTile
}

// Device1Spec describes the large 2-tile GPU ("Device1" in the paper).
// Knee ≈ 6.5 int64 op/byte: the naive NTT (density 1.5) is bandwidth
// bound while the radix-8 staged NTT (density 8.9) is compute bound.
func Device1Spec() DeviceSpec {
	return DeviceSpec{
		Name:           "Device1",
		Tiles:          2,
		EUsPerTile:     512,
		EUsPerSubslice: 8,
		ThreadsPerEU:   7,
		SIMDWidth:      8,

		GRFBytesPerThread:   4096,
		GRFReservedBytes:    1536,
		SLMBytesPerSubslice: 64 << 10,

		ClockGHz: 1.6,

		GlobalBytesPerCyclePerTile:  630, // knee = 4096/630 ≈ 6.5 op/B
		SLMBytesPerCyclePerSubslice: 128,
		PCIeBytesPerCycle:           20, // ~32 GB/s

		KernelLaunchCycles:  1800,
		HostSubmitCycles:    800,
		HostSyncCycles:      24000,
		MultiQueueTaxCycles: 600,
		AllocBaseCycles:     9000, // driver allocation + queue drain
		AllocPerKBCycles:    30,
		BarrierCycles:       320,
		MultiTileScaling:    0.72,

		Costs: isa.NewDevice1Costs(),
	}
}

// Device2Spec describes the smaller single-tile GPU ("Device2").
// It has a higher compute/bandwidth ratio (knee ≈ 8.75 op/byte), which
// reproduces the paper's ~15% naive-NTT efficiency on this device.
func Device2Spec() DeviceSpec {
	return DeviceSpec{
		Name:           "Device2",
		Tiles:          1,
		EUsPerTile:     256,
		EUsPerSubslice: 8,
		ThreadsPerEU:   7,
		SIMDWidth:      8,

		GRFBytesPerThread:   4096,
		GRFReservedBytes:    1536,
		SLMBytesPerSubslice: 64 << 10,

		ClockGHz: 1.35,

		GlobalBytesPerCyclePerTile:  234, // knee = 2048/234 ≈ 8.75 op/B
		SLMBytesPerCyclePerSubslice: 128,
		PCIeBytesPerCycle:           20,

		KernelLaunchCycles:  1600,
		HostSubmitCycles:    800,
		HostSyncCycles:      20000,
		MultiQueueTaxCycles: 600,
		AllocBaseCycles:     8000,
		AllocPerKBCycles:    30,
		BarrierCycles:       320,
		MultiTileScaling:    0.72,

		Costs: isa.NewDevice2Costs(),
	}
}
