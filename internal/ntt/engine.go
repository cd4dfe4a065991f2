package ntt

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"xehe/internal/gpu"
	"xehe/internal/isa"
	"xehe/internal/sycl"
)

// Variant selects one of the paper's GPU NTT implementations.
type Variant int

const (
	// NaiveRadix2 is the baseline of Fig. 6: one global-memory kernel
	// per butterfly stage plus a last-round reduction kernel.
	NaiveRadix2 Variant = iota
	// SIMD8x8, SIMD16x8, SIMD32x8 are the staged radix-2 variants of
	// Section III-B.2/3/4: SLM for mid-size gaps, subgroup SIMD
	// shuffling once the gap fits in TER_SIMD_GAP_SZ registers, with
	// 1, 2 and 4 register slots per work-item respectively.
	SIMD8x8
	SIMD16x8
	SIMD32x8
	// LocalRadix4/8/16 are the high-radix register-blocked kernels of
	// Section III-B.5 with SLM staging and fused last-round processing.
	LocalRadix4
	LocalRadix8
	LocalRadix16
)

var variantNames = map[Variant]string{
	NaiveRadix2: "naive", SIMD8x8: "SIMD(8,8)", SIMD16x8: "SIMD(16,8)",
	SIMD32x8: "SIMD(32,8)", LocalRadix4: "local-radix-4",
	LocalRadix8: "local-radix-8", LocalRadix16: "local-radix-16",
}

func (v Variant) String() string {
	if s, ok := variantNames[v]; ok {
		return s
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// Radix returns the butterfly radix of the variant (2 for the radix-2
// families).
func (v Variant) Radix() int {
	switch v {
	case LocalRadix4:
		return 4
	case LocalRadix8:
		return 8
	case LocalRadix16:
		return 16
	default:
		return 2
	}
}

// slots returns the register slots per work-item of SIMD variants.
func (v Variant) slots() int {
	switch v {
	case SIMD16x8:
		return 2
	case SIMD32x8:
		return 4
	default:
		return 1
	}
}

// Architecture / calibration constants of the staged implementations.
const (
	// slmGroupElems is the NTT span assigned to one work-group's SLM
	// (Section III-B.2: 4K elements per work-group, 32 KB of the 64 KB
	// SLM).
	slmGroupElems = 4096
	// simdWidth is the subgroup width of the SIMD shuffling kernels.
	simdWidth = 8

	// slmSendSlotsRadix2 is the issue-slot cost of one SLM access in
	// the fine-grained gap-strided radix-2 exchange: a send instruction
	// serialized by heavy (~16-way) bank conflicts at power-of-two
	// strides. This is why the paper's SLM+SIMD radix-2 barely beats
	// the naive kernel (+28%, Fig. 12) despite avoiding global memory.
	slmSendSlotsRadix2 = 48.0
	// slmSendSlotsHighRadix is the per-access cost of the high-radix
	// kernels' r-element block transfers, which stream consecutive
	// addresses and conflict little.
	slmSendSlotsHighRadix = 1.5

	// multiSlotPenalty scales the in-register data-exchange and
	// register-pressure overhead of multi-slot SIMD variants, applied
	// per stage per item as penalty*(slots-1)^2 issue slots: the
	// "negative aspects [that] dominate the performance" making
	// SIMD(16,8) and SIMD(32,8) lose to SIMD(8,8) (Section III-B.4).
	multiSlotPenalty = 40.0
)

// otherOps is Table I's "other" (index/address) op count per work-item
// per round, by radix.
var otherOps = map[int]float64{2: 20, 4: 45, 8: 120, 16: 260}

// butterfliesPerItem returns how many 2-point butterflies one
// work-item of a radix-r round performs: (r/2)·log2(r).
func butterfliesPerItem(r int) int {
	n := 0
	for w := r; w > 1; w >>= 1 {
		n += r / 2
	}
	return n
}

// RoundOps returns Table I's per-work-item per-round op counts
// (other, butterfly, total) for the given radix.
func RoundOps(r int) (other, butterfly, total float64) {
	other = otherOps[r]
	butterfly = float64(butterfliesPerItem(r)) * 28
	return other, butterfly, other + butterfly
}

// roundProfile builds the per-item ISA profile of one radix-r round.
func roundProfile(r int) isa.Profile {
	var p isa.Profile
	p.AddProfile(isa.ButterflyProfile(), float64(butterfliesPerItem(r)))
	p.Add(isa.OpIndex, otherOps[r])
	return p
}

// Engine executes batched negacyclic NTTs of one variant on the
// simulated GPU. A batch is polys × len(tbls) independent transforms,
// addressed either contiguously (Forward/Inverse: slice (p, q) starts
// at (p*len(tbls)+q)*N of one allocation) or through a BatchView
// (ForwardView/InverseView: rows gathered from arbitrary buffers, the
// cross-job fusion path). Either way the whole batch shares one kernel
// sequence, paying launch overhead per transform round rather than per
// polynomial.
//
// That kernel sequence is a pure function of (variant, N, polys, RNS
// count, direction), so the engine plans each shape once (see plan) and
// every later transform of the shape launches the stored descriptors at
// the prices stored with them. A transform over a view with no rows
// (ShapeView, or nil data) is timing-only: it launches the plan's
// body-less descriptors and only accounts simulated time — what the
// paper-scale sweeps (e.g. 32K-point, 1024-instance batches) run. An
// engine is safe for concurrent use once V is set; it must not be
// copied after its first transform.
type Engine struct {
	V Variant

	// plans maps each shape the engine has run to its plan. It is
	// copied on write (under mu) and never evicted, so a warm lookup is
	// one atomic load and a map read.
	plans atomic.Pointer[map[planKey]*plan]
	mu    sync.Mutex
}

// NewEngine returns an engine for the variant.
func NewEngine(v Variant) *Engine { return &Engine{V: v} }

// Forward runs forward NTTs over a contiguous batch on the given
// queues (len(qs) > 1 = explicit multi-tile submission) and returns
// the final events. data uses the flat layout documented on Engine
// (nil data runs timing-only); ForwardView accepts non-contiguous
// batches.
func (e *Engine) Forward(qs []*sycl.Queue, data []uint64, polys int, tbls []*Tables, deps ...gpu.Event) []gpu.Event {
	return e.run(qs, e.view(data, polys, tbls), tbls, true, nil, deps)
}

// Inverse runs inverse NTTs over a contiguous batch (including the
// n^{-1} scaling and final reduction). InverseView accepts
// non-contiguous batches.
func (e *Engine) Inverse(qs []*sycl.Queue, data []uint64, polys int, tbls []*Tables, deps ...gpu.Event) []gpu.Event {
	return e.run(qs, e.view(data, polys, tbls), tbls, false, nil, deps)
}

// ForwardView runs forward NTTs over an arbitrary BatchView — rows
// gathered from any number of device buffers — as the same single
// kernel sequence a contiguous batch of equal shape would launch.
// This is the cross-job fusion entry point: one launch per transform
// round covers every row, paying the kernel launch and submission
// overhead once for the whole view instead of once per job.
//
// The last kernel's events, one per queue, are written into tail and
// returned (tail is grown only when it has no room; nil allocates).
// tail may share its backing array with deps, so a caller that keeps
// its pipeline tail in one slice transforms without allocating; the
// engine itself keeps nothing of either.
func (e *Engine) ForwardView(qs []*sycl.Queue, view *BatchView, tbls []*Tables, tail []gpu.Event, deps ...gpu.Event) []gpu.Event {
	return e.run(qs, view, tbls, true, tail, deps)
}

// InverseView runs inverse NTTs (with n^{-1} scaling and final
// reduction) over an arbitrary BatchView; see ForwardView.
func (e *Engine) InverseView(qs []*sycl.Queue, view *BatchView, tbls []*Tables, tail []gpu.Event, deps ...gpu.Event) []gpu.Event {
	return e.run(qs, view, tbls, false, tail, deps)
}

// view wraps the classic contiguous layout as a BatchView (shape-only
// when data is nil). Empty batches yield a nil view, which every entry
// point treats as a no-op.
func (e *Engine) view(data []uint64, polys int, tbls []*Tables) *BatchView {
	if len(tbls) == 0 || polys == 0 {
		return nil
	}
	return ContiguousView(data, polys, len(tbls), tbls[0].N)
}

// planKey is a transform shape: everything a kernel sequence's names,
// ranges and profiles depend on.
type planKey struct {
	v                Variant
	n, polys, qCount int
	forward          bool
}

// step is one kernel of a plan, split the way its builder is: desc is
// the half that depends only on the shape (name, range, SLM size and
// the whole profile, Name and Items filled in) and is read-only from
// the moment the plan is stored; bind closes the kernel's body over
// the rows and tables of one batch.
type step struct {
	desc sycl.Kernel
	bind func(view *BatchView, tbls []*Tables) func(*gpu.GroupCtx)
}

// plan is the kernel sequence of one transform shape. kernels[i] is
// &steps[i].desc: the list a timing-only transform launches as it is.
type plan struct {
	steps   []step
	kernels []*sycl.Kernel

	// prices holds the plan's price on every (device, codegen, queue
	// split) it has been launched under. It is copied on write and only
	// grows, so a launch reads it with one atomic load.
	prices atomic.Pointer[[]planPrice]
}

// planPrice is what each kernel of a plan costs one submission under
// one launch configuration: cycles[i] is gpu.Kernel.Price of kernels[i]
// on the device whose spec is at spec, so the stored price is the very
// float a per-launch pricing would compute. The device is told apart by
// the address of its spec, not by the spec's name — two devices with
// modified specs of one name are two keys — and the key holds the spec
// live, so the address cannot be reused by another device.
type planPrice struct {
	spec   *gpu.DeviceSpec
	cg     isa.CodeGen
	split  int
	cycles []gpu.Cycles
}

// pricesOn returns the plan's kernel prices for a launch over qs,
// pricing every kernel on first use. Two goroutines meeting an unpriced
// configuration both compute the same floats; the first to publish
// wins and the other adopts it.
func (p *plan) pricesOn(qs []*sycl.Queue) []gpu.Cycles {
	spec, cg, split := &qs[0].Device().Spec, qs[0].CodeGen(), len(qs)
	var fresh []gpu.Cycles
	for {
		old := p.prices.Load()
		if old != nil {
			for i := range *old {
				if pp := &(*old)[i]; pp.spec == spec && pp.cg == cg && pp.split == split {
					return pp.cycles
				}
			}
		}
		if fresh == nil {
			fresh = make([]gpu.Cycles, len(p.kernels))
			for i, k := range p.kernels {
				fresh[i] = sycl.Price(qs, k)
			}
		}
		var grown []planPrice
		if old != nil {
			grown = append(grown, *old...)
		}
		grown = append(grown, planPrice{spec, cg, split, fresh})
		if p.prices.CompareAndSwap(old, &grown) {
			return fresh
		}
	}
}

// plan returns the shape's plan, building it on first use.
func (e *Engine) plan(n, polys, qCount int, forward bool) *plan {
	key := planKey{e.V, n, polys, qCount, forward}
	if plans := e.plans.Load(); plans != nil {
		if p, ok := (*plans)[key]; ok {
			return p
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.plans.Load()
	if old != nil {
		if p, ok := (*old)[key]; ok {
			return p
		}
	}
	p := &plan{steps: e.buildSteps(n, polys, qCount, forward)}
	p.kernels = make([]*sycl.Kernel, len(p.steps))
	for i := range p.steps {
		k := &p.steps[i].desc
		k.Profile.Name = k.Name
		p.kernels[i] = k
	}
	plans := make(map[planKey]*plan, 1)
	if old != nil {
		maps.Copy(plans, *old)
	}
	plans[key] = p
	e.plans.Store(&plans)
	return p
}

// round describes one scheduled kernel phase.
type round struct {
	w      int  // stages covered (radix 2^w)
	global bool // exchanges through global memory (vs SLM kernel)
}

// schedule plans the rounds of a transform of logN stages.
//
// Forward: global rounds while the exchange gap exceeds half an SLM
// group (the paper's TER_SLM_GAP_SZ, slmGroupElems/2), then SLM rounds
// (the whole SLM phase is one kernel). Inverse mirrors it: SLM rounds
// first (small gaps), then global rounds.
func (e *Engine) schedule(n int, forward bool) []round {
	logN := 0
	for 1<<logN < n {
		logN++
	}
	w := 1
	switch e.V {
	case LocalRadix4:
		w = 2
	case LocalRadix8:
		w = 3
	case LocalRadix16:
		w = 4
	}
	// Number of trailing stages that fit in an SLM group.
	slmStages := logN
	if n > slmGroupElems {
		logGroup := 0
		for 1<<logGroup < slmGroupElems {
			logGroup++
		}
		slmStages = logGroup
	}
	globalStages := logN - slmStages

	plan := func(stages int, global bool) []round {
		var rs []round
		for stages > 0 {
			take := w
			if take > stages {
				take = stages
			}
			rs = append(rs, round{w: take, global: global})
			stages -= take
		}
		return rs
	}
	if forward {
		return append(plan(globalStages, true), plan(slmStages, false)...)
	}
	return append(plan(slmStages, false), plan(globalStages, true)...)
}

// BuildKernels constructs the kernel sequence of one contiguous
// batched transform without launching it, so harnesses can inspect or
// price the plan. BuildKernelsView is the non-contiguous equivalent.
func (e *Engine) BuildKernels(data []uint64, polys int, tbls []*Tables, forward bool) []*sycl.Kernel {
	if len(tbls) == 0 || polys == 0 {
		return nil
	}
	return e.BuildKernelsView(e.view(data, polys, tbls), tbls, forward)
}

// BuildKernelsView constructs the kernel sequence of one batched
// transform over an arbitrary BatchView without launching it. The
// plan — and hence the analytic cost per row — is identical to a
// contiguous batch of the same shape; only the row addressing differs.
//
// Over a view with rows it returns its own copies of the plan's
// descriptors with bodies bound to the view. Over a shape-only view it
// returns the plan's shared body-less descriptors, which are read-only:
// they price a transform and launch a timing-only one.
func (e *Engine) BuildKernelsView(view *BatchView, tbls []*Tables, forward bool) []*sycl.Kernel {
	if len(tbls) == 0 || view == nil || view.polys == 0 {
		return nil
	}
	return e.bind(e.plan(tbls[0].N, view.polys, len(tbls), forward), view, tbls)
}

// bind returns the kernels a transform of p over view launches: the
// plan's shared descriptors when the view is shape-only, else copies
// with bodies bound to the view.
func (e *Engine) bind(p *plan, view *BatchView, tbls []*Tables) []*sycl.Kernel {
	if view.rows == nil {
		return p.kernels
	}
	view.check(tbls)
	bound := make([]sycl.Kernel, len(p.steps))
	kernels := make([]*sycl.Kernel, len(p.steps))
	for i := range p.steps {
		bound[i] = p.steps[i].desc
		bound[i].Body = p.steps[i].bind(view, tbls)
		kernels[i] = &bound[i]
	}
	return kernels
}

// buildSteps plans one transform shape: the naive variant's kernel per
// stage, or the schedule's global rounds with each run of SLM rounds
// grouped into a single kernel.
func (e *Engine) buildSteps(n, polys, qCount int, forward bool) []step {
	if e.V == NaiveRadix2 {
		return naiveSteps(n, polys, qCount, forward)
	}
	rounds := e.schedule(n, forward)
	var steps []step
	stage := 0
	if !forward {
		stage = countStages(n)
	}
	advance := func(w int) {
		if forward {
			stage += w
		} else {
			stage -= w
		}
	}
	for i := 0; i < len(rounds); {
		if rounds[i].global {
			steps = append(steps, globalRoundStep(n, polys, qCount, rounds[i].w, stage, forward))
			advance(rounds[i].w)
			i++
			continue
		}
		var ws []int
		for ; i < len(rounds) && !rounds[i].global; i++ {
			ws = append(ws, rounds[i].w)
		}
		steps = append(steps, e.slmStep(n, polys, qCount, ws, stage, forward))
		for _, w := range ws {
			advance(w)
		}
	}
	return steps
}

// NominalOps returns the total nominal int64 ALU op count of one
// batched transform under this variant's schedule — the numerator of
// the paper's efficiency metric (each variant counts its own ops).
func (e *Engine) NominalOps(spec *gpu.DeviceSpec, polys int, tbls []*Tables, forward bool) float64 {
	if len(tbls) == 0 || polys == 0 {
		return 0
	}
	var total float64
	for _, k := range e.plan(tbls[0].N, polys, len(tbls), forward).kernels {
		total += k.Profile.NominalOps(spec)
	}
	return total
}

// run launches the kernels of one batched transform at the plan's
// stored prices, each kernel ordered after the one before through the
// tail it wrote: on one queue a warm transform allocates nothing when
// the caller lends tail storage. A view with rows launches inside one
// hold on the first queue, so the host takes each row through every
// round while it is still in cache (every kernel of a plan spans the
// view's polys × qCount rows, and a row's groups touch that row only).
// A shape-only view has no bodies to hold.
func (e *Engine) run(qs []*sycl.Queue, view *BatchView, tbls []*Tables, forward bool, tail, deps []gpu.Event) []gpu.Event {
	if len(tbls) == 0 || view == nil || view.polys == 0 {
		return deps
	}
	p := e.plan(tbls[0].N, view.polys, len(tbls), forward)
	prices := p.pricesOn(qs)
	kernels := e.bind(p, view, tbls)
	launch := func() {
		for i, k := range kernels {
			tail = sycl.Launch(tail, qs, k, prices[i], deps...)
			deps = tail
		}
	}
	if view.rows == nil {
		launch()
	} else {
		qs[0].Raw().Hold(launch)
	}
	return tail
}

func countStages(n int) int {
	s := 0
	for 1<<s < n {
		s++
	}
	return s
}
