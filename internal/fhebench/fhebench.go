// Package fhebench is the benchmark harness that regenerates every
// table and figure of the paper's evaluation (Section IV) from the
// simulated devices: NTT sweeps (Figs. 12-14, 17), the roofline
// analysis (Fig. 15, Table I), HE-routine profiles and optimization
// staircases (Figs. 5, 16, 18), and the matMul application ablation
// (Fig. 19). Results are returned as text tables and as structured
// values for the calibration tests in this package.
package fhebench

import (
	"fmt"
	"strings"
	"sync"

	"xehe/internal/apps/matmul"
	"xehe/internal/ckks"
	"xehe/internal/core"
	"xehe/internal/gpu"
	"xehe/internal/isa"
	"xehe/internal/ntt"
	"xehe/internal/poly"
	"xehe/internal/roofline"
	"xehe/internal/xmath"
)

// Table is a printable result table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w) + "  ")
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// --- shared fixtures -------------------------------------------------

var (
	tablesMu    sync.Mutex
	tablesCache = map[int]*ntt.Tables{}
)

// nttTables returns (cached) twiddle tables for degree n.
func nttTables(n int) *ntt.Tables {
	tablesMu.Lock()
	defer tablesMu.Unlock()
	if t, ok := tablesCache[n]; ok {
		return t
	}
	p := xmath.GeneratePrimes(50, 1, n)[0]
	t := ntt.NewTables(n, xmath.NewModulus(p))
	tablesCache[n] = t
	return t
}

var (
	benchParamsOnce sync.Once
	benchParams     *ckks.Parameters
)

// BenchParams returns the paper's evaluation parameters (N=32K, L=8),
// built once.
func BenchParams() *ckks.Parameters {
	benchParamsOnce.Do(func() { benchParams = ckks.BenchParameters() })
	return benchParams
}

// AppParams returns the matMul application parameters (8K-coefficient
// polynomials).
var (
	appParamsOnce sync.Once
	appParams     *ckks.Parameters
)

func AppParams() *ckks.Parameters {
	appParamsOnce.Do(func() { appParams = ckks.NewParameters(8192, 6, 50, 40, 52, 1<<40) })
	return appParams
}

// dummySwitchKey builds zero key material for analytic runs (the
// kernel bodies never execute, only the shapes matter).
func dummySwitchKey(params *ckks.Parameters) ckks.SwitchKey {
	L := params.MaxLevel()
	zero := poly.New(params.N, L+2)
	zero.IsNTT = true
	swk := ckks.SwitchKey{}
	for i := 0; i <= L; i++ {
		swk.B = append(swk.B, zero)
		swk.A = append(swk.A, zero)
	}
	return swk
}

// DummyRelinKey returns analytic-run relinearization key material.
func DummyRelinKey(params *ckks.Parameters) *ckks.RelinKey {
	return &ckks.RelinKey{SwitchKey: dummySwitchKey(params)}
}

// DummyGaloisKey returns analytic-run rotation key material.
func DummyGaloisKey(params *ckks.Parameters, k int) *ckks.GaloisKey {
	return &ckks.GaloisKey{Galois: params.GaloisElement(k), SwitchKey: dummySwitchKey(params)}
}

// --- NTT sweep machinery ---------------------------------------------

// NTTConfig is one cell of the NTT sweeps: transform size and batched
// instance count (the paper's "32K, 1024" style labels) at RNS size 8.
type NTTConfig struct {
	N         int
	Instances int
}

func (c NTTConfig) String() string {
	if c.N >= 1024 {
		return fmt.Sprintf("%dK,%d", c.N/1024, c.Instances)
	}
	return fmt.Sprintf("%d,%d", c.N, c.Instances)
}

// NTTRun simulates one batched forward NTT at rns moduli through
// roofline.Run and returns simulated cycles and the variant's nominal
// op count.
func NTTRun(spec gpu.DeviceSpec, v ntt.Variant, cg isa.CodeGen, tiles int, cfg NTTConfig, rns int) (cycles, nominal float64) {
	tbl := nttTables(cfg.N)
	tbls := make([]*ntt.Tables, rns)
	for i := range tbls {
		tbls[i] = tbl
	}
	return roofline.Run(spec, v, cg, tiles, cfg.Instances, tbls)
}

// NTTSpeedup returns the speedup of (v, cg, tiles) over the naive
// compiler-generated single-tile baseline at the same configuration.
func NTTSpeedup(spec gpu.DeviceSpec, v ntt.Variant, cg isa.CodeGen, tiles int, cfg NTTConfig) float64 {
	base, _ := NTTRun(spec, ntt.NaiveRadix2, isa.CompilerGenerated, 1, cfg, 8)
	t, _ := NTTRun(spec, v, cg, tiles, cfg, 8)
	return base / t
}

// NTTEfficiency returns the fraction of the device's full int64 peak
// achieved by the variant (the paper's efficiency metric).
func NTTEfficiency(spec gpu.DeviceSpec, v ntt.Variant, cg isa.CodeGen, tiles int, cfg NTTConfig) float64 {
	t, nom := NTTRun(spec, v, cg, tiles, cfg, 8)
	return gpu.Efficiency(&spec, nom, t)
}

// --- routine machinery -----------------------------------------------

// RoutineResult is one HE routine's simulated execution split into NTT
// kernel time and everything else (the stacked bars of Figs. 5/16/18).
type RoutineResult struct {
	Routine     string
	NTTCycles   float64
	OtherCycles float64
}

// Total returns the routine's total simulated kernel time.
func (r RoutineResult) Total() float64 { return r.NTTCycles + r.OtherCycles }

// NTTShare returns the NTT fraction of the total.
func (r RoutineResult) NTTShare() float64 { return r.NTTCycles / r.Total() }

// RunRoutine simulates one of the five HE evaluation routines at the
// paper's parameters (N=32K, L=8) under the given backend config and
// splits its kernel time into NTT vs other kernels.
func RunRoutine(spec gpu.DeviceSpec, cfg core.Config, routine string) RoutineResult {
	params := BenchParams()
	cfg.Analytic = true
	dev := gpu.NewDevice(spec)
	ctx := core.NewContext(params, dev, cfg)
	rlk := DummyRelinKey(params)
	gk := DummyGaloisKey(params, 1)
	L := params.MaxLevel()

	a := ctx.NewZeroCt(1, L, params.Scale, true)
	b := ctx.NewZeroCt(1, L, params.Scale, true)
	add := ctx.NewZeroCt(1, L, params.Scale, true)

	dev.EnableTrace()
	switch routine {
	case "MulLin":
		ctx.MulLin(a, b, rlk)
	case "MulLinRS":
		ctx.MulLinRS(a, b, rlk)
	case "SqrLinRS":
		ctx.SqrLinRS(a, rlk)
	case "MulLinRSModSwAdd":
		add.CT.Scale = params.Scale // scales align approximately
		ctx.MulLinRSModSwAdd(a, b, add, rlk)
	case "Rotate":
		ctx.Rotate(a, 1, gk)
	default:
		panic("fhebench: unknown routine " + routine)
	}
	ctx.Wait()

	// The paper counts GPU kernel time exclusively for routine-level
	// benchmarks (Section IV-C). Dual-tile submissions split every
	// kernel into equal per-tile halves that run concurrently, so the
	// critical-path kernel time is the trace sum divided by the queue
	// count.
	div := 1.0
	if cfg.DualTile && spec.Tiles > 1 {
		div = float64(spec.Tiles)
	}
	var res RoutineResult
	res.Routine = routine
	for _, e := range dev.Trace() {
		if strings.HasPrefix(e.Name, "ntt_") {
			res.NTTCycles += e.Cycles / div
		} else {
			res.OtherCycles += e.Cycles / div
		}
	}
	return res
}

// --- matMul machinery -------------------------------------------------

// MatMulStep names one bar group of Fig. 19.
type MatMulStep struct {
	Name string
	Cfg  core.Config
}

// MatMulSteps returns the four optimization steps of Fig. 19 (all with
// the optimized NTT, since Fig. 19 isolates the instruction- and
// application-level optimizations).
func MatMulSteps() []MatMulStep {
	return []MatMulStep{
		{"baseline", core.Config{NTT: ntt.LocalRadix8, Analytic: true}},
		{"mad_mod", core.Config{NTT: ntt.LocalRadix8, MadMod: true, Analytic: true}},
		{"inline asm", core.Config{NTT: ntt.LocalRadix8, MadMod: true, InlineASM: true, Analytic: true}},
		{"mem cache", core.Config{NTT: ntt.LocalRadix8, MadMod: true, InlineASM: true, MemCache: true, Analytic: true}},
	}
}

// RunMatMul simulates one matMul workload under a config and returns
// the end-to-end simulated host time.
func RunMatMul(spec gpu.DeviceSpec, cfg core.Config, w matmul.Workload) float64 {
	params := AppParams()
	dev := gpu.NewDevice(spec)
	ctx := core.NewContext(params, dev, cfg)
	A := analyticMatrix(params, w.M, w.K)
	B := analyticMatrix(params, w.K, w.N)
	matmul.Run(ctx, A, B, w)
	ctx.Wait()
	return dev.HostTime()
}

var (
	shapePolysMu sync.Mutex
	shapePolys   = map[[2]int][]*poly.Poly{} // by (N, components)
)

// analyticMatrix builds a rows x cols matrix of host ciphertexts for
// timing-only runs. Only their shapes are ever read, so every element
// of every matrix of one shape shares one pair of zero polynomials,
// built once.
func analyticMatrix(params *ckks.Parameters, rows, cols int) [][]*ckks.Ciphertext {
	level := params.MaxLevel()
	shape := [2]int{params.N, level + 1}
	shapePolysMu.Lock()
	shared, ok := shapePolys[shape]
	if !ok {
		shared = []*poly.Poly{poly.New(params.N, level+1), poly.New(params.N, level+1)}
		shapePolys[shape] = shared
	}
	shapePolysMu.Unlock()
	m := make([][]*ckks.Ciphertext, rows)
	for i := range m {
		m[i] = make([]*ckks.Ciphertext, cols)
		for j := range m[i] {
			m[i][j] = &ckks.Ciphertext{Value: shared, Scale: params.Scale, Level: level}
		}
	}
	return m
}
