// Command xehe-info prints the host kernel families the functional
// bodies run on, then the simulated device inventories: compute
// hierarchy, memory system, roofline knee, and ISA cost tables.
package main

import (
	"fmt"

	"xehe/internal/gpu"
	"xehe/internal/isa"
	"xehe/internal/xmath"
)

// hostKernels names the code the host bodies run on here, so that a
// host-clock number can be tied to the kernels that produced it.
func hostKernels() string {
	switch {
	case xmath.HasIFMA():
		return "AVX-512F/DQ + IFMA (NTT rounds on IFMA under moduli below 2^52, key-switch and elementwise rows below 2^50; the rest on AVX-512F/DQ)"
	case xmath.HasAVX512():
		return "AVX-512F/DQ (NTT rounds, key-switch and elementwise rows)"
	}
	return "Go loops (no AVX-512, or the purego build tag)"
}

func main() {
	fmt.Printf("host: %s\n\n", hostKernels())
	for _, spec := range []gpu.DeviceSpec{gpu.Device1Spec(), gpu.Device2Spec()} {
		fmt.Printf("=== %s ===\n", spec.Name)
		fmt.Printf("tiles: %d, EUs/tile: %d (%d subslices x %d EUs), %d threads/EU, SIMD-%d\n",
			spec.Tiles, spec.EUsPerTile, spec.SubslicesPerTile(), spec.EUsPerSubslice,
			spec.ThreadsPerEU, spec.SIMDWidth)
		fmt.Printf("GRF: %d B/thread (%d reserved), SLM: %d KB/subslice\n",
			spec.GRFBytesPerThread, spec.GRFReservedBytes, spec.SLMBytesPerSubslice>>10)
		fmt.Printf("clock: %.2f GHz, int64 peak: %.0f GIOPS (device), %.0f GIOPS (tile)\n",
			spec.ClockGHz, spec.PeakGIOPS(), spec.PeakSlotsPerCyclePerTile()*spec.ClockGHz)
		fmt.Printf("DRAM: %.0f B/cycle/tile (%.0f GB/s), roofline knee: %.2f int64 op/byte\n",
			spec.GlobalBytesPerCyclePerTile,
			spec.GlobalBytesPerCyclePerTile*spec.ClockGHz,
			spec.OperationalKnee())
		fmt.Printf("overheads (cycles): launch %.0f, submit %.0f, sync %.0f, alloc %.0f\n",
			spec.KernelLaunchCycles, spec.HostSubmitCycles, spec.HostSyncCycles, spec.AllocBaseCycles)
		fmt.Println("ISA costs (slots):")
		for _, cg := range []isa.CodeGen{isa.CompilerGenerated, isa.InlineASM} {
			t := spec.Costs.Tables[cg]
			fmt.Printf("  %-11s add_mod=%.1f mul64=%.1f mad_mod=%.1f mul_mod=%.1f\n",
				cg, t.Cost(isa.OpAddMod), t.Cost(isa.OpMul64Lo), t.Cost(isa.OpMAdMod), t.Cost(isa.OpMulMod))
		}
		fmt.Println()
	}
}
