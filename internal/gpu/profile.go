package gpu

import "xehe/internal/isa"

// Cycles is a simulated device-cycle count. Simulated durations are the
// basis for every figure reproduced from the paper.
type Cycles = float64

// MemPattern classifies a kernel's dominant global-memory access
// pattern; it selects the achievable fraction of peak DRAM bandwidth.
type MemPattern int

const (
	// PatternUnitStride: consecutive work-items touch consecutive
	// addresses (coalesced loads/stores).
	PatternUnitStride MemPattern = iota
	// PatternStrided: power-of-two strided access with partial
	// coalescing (e.g. the transpose-ish phases of hierarchical FFTs).
	PatternStrided
	// PatternGather: data-dependent or irregular.
	PatternGather
)

// Efficiency returns the achievable fraction of peak bandwidth.
func (p MemPattern) Efficiency() float64 {
	switch p {
	case PatternUnitStride:
		return 0.85
	case PatternStrided:
		return 0.55
	default:
		return 0.35
	}
}

// KernelProfile is the analytic description of one GPU kernel
// submission. The functional layer fills it in alongside the real
// computation; pure-analytic sweeps construct it directly.
type KernelProfile struct {
	Name string

	// Items is the number of work-items in the ND-range.
	Items int
	// GroupItems is the work-group size (0 means no grouping/barriers).
	GroupItems int

	// PerItem is the ALU op mix executed by each work-item. Only these
	// ops count toward the paper's "nominal int64 ops" efficiency
	// numerator.
	PerItem isa.Profile
	// ExtraSlotsPerItem are additional issue slots each work-item
	// occupies that are *not* int64 ALU work: SLM send instructions
	// (including bank-conflict serialization), subgroup shuffles, and
	// in-register data-exchange moves. They cost time but are excluded
	// from the nominal-op count, exactly as the paper's efficiency
	// metric counts only Table I ALU ops.
	ExtraSlotsPerItem float64

	// GlobalBytes is total DRAM traffic (both directions).
	GlobalBytes float64
	// Pattern selects the bandwidth efficiency for GlobalBytes.
	Pattern MemPattern

	// SLMBytes is total shared-local-memory traffic.
	SLMBytes float64
	// SLMConflictFactor models bank-conflict serialization: 1 = conflict
	// free, k = average k-way conflicts. Fine-grained gap-strided
	// radix-2 exchange conflicts heavily; block-transfer patterns less.
	SLMConflictFactor float64

	// Barriers is the number of work-group barriers each group executes.
	Barriers int

	// GRFBytesPerItem is the register footprint of one work-item
	// (data + twiddle registers). If a thread's footprint
	// (GRFBytesPerItem × SIMDWidth) exceeds the usable GRF, the kernel
	// pays the register-spill penalty (the radix-16 regression of
	// Fig. 13).
	GRFBytesPerItem int
}

// spillFactor returns the compute-slot multiplier and extra global
// traffic caused by register spilling, if any.
func (k *KernelProfile) spillFactor(spec *DeviceSpec) (slotMul float64, extraBytes float64) {
	if k.GRFBytesPerItem == 0 {
		return 1, 0
	}
	perThread := k.GRFBytesPerItem * spec.SIMDWidth
	usable := spec.GRFBytesPerThread - spec.GRFReservedBytes
	if perThread <= usable {
		return 1, 0
	}
	// Fraction of the working set that spills round-trips through
	// memory on every use; each spilled byte also costs extra
	// load/store instructions.
	deficit := float64(perThread-usable) / float64(perThread)
	slotMul = 1 + 5*deficit
	extraBytes = deficit * float64(k.Items) * float64(k.GRFBytesPerItem) * 4
	return slotMul, extraBytes
}

// Time converts the profile into simulated device cycles on one tile
// of the given device, under the given code generation strategy. A
// kernel split across tiles is priced by Kernel.Price, which scales
// the profile's share before calling Time.
//
// The model is a max-of-bottlenecks pipeline:
//
//	t = launch + max(t_compute, t_global, t_slm) + t_barrier
//
// matching the roofline methodology the paper uses in Section IV-B.
func (k *KernelProfile) Time(spec *DeviceSpec, cg isa.CodeGen) Cycles {
	table := &spec.Costs.Tables[cg]

	spillMul, spillBytes := k.spillFactor(spec)

	// Compute: total instruction slots over the issue-rate peak.
	slots := (k.PerItem.Slots(table) + k.ExtraSlotsPerItem) * float64(k.Items) * spillMul
	peak := spec.PeakSlotsPerCyclePerTile()
	tCompute := slots / peak

	// Global memory: traffic over achievable bandwidth.
	bw := spec.GlobalBytesPerCyclePerTile * k.Pattern.Efficiency()
	tGlobal := (k.GlobalBytes + spillBytes) / bw

	// SLM: traffic over banked SLM bandwidth, derated by conflicts.
	var tSLM Cycles
	if k.SLMBytes > 0 {
		conflict := k.SLMConflictFactor
		if conflict < 1 {
			conflict = 1
		}
		slmBW := spec.SLMBytesPerCyclePerSubslice * float64(spec.SubslicesPerTile())
		tSLM = k.SLMBytes * conflict / slmBW
	}

	t := tCompute
	if tGlobal > t {
		t = tGlobal
	}
	if tSLM > t {
		t = tSLM
	}

	// Barriers serialize group sub-waves: each barrier drains the
	// group's in-flight waves. Groups larger than the resident item
	// capacity pay proportionally more.
	if k.Barriers > 0 && k.GroupItems > 0 {
		waves := float64(k.GroupItems)/float64(spec.ResidentItemsPerSubslice()) + 1
		groups := float64(k.Items) / float64(k.GroupItems)
		concurrentGroups := float64(spec.SubslicesPerTile())
		if groups < concurrentGroups && groups > 0 {
			concurrentGroups = groups
		}
		rounds := groups / concurrentGroups
		t += float64(k.Barriers) * spec.BarrierCycles * waves * rounds
	}

	return spec.KernelLaunchCycles + t
}

// NominalOps returns the kernel's total nominal int64 ALU op count (the
// numerator of the paper's efficiency metric).
func (k *KernelProfile) NominalOps(spec *DeviceSpec) float64 {
	return k.PerItem.NominalOps(spec.Costs) * float64(k.Items)
}

// Efficiency returns nominal-op throughput as a fraction of the
// device's full int64 peak (all tiles), the metric plotted in
// Figs. 12(b), 13(b), 14 and 17.
func Efficiency(spec *DeviceSpec, nominalOps float64, t Cycles) float64 {
	if t <= 0 {
		return 0
	}
	return nominalOps / t / spec.PeakSlotsPerCycle()
}
