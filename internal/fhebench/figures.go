package fhebench

import (
	"fmt"

	"xehe/internal/apps/matmul"
	"xehe/internal/core"
	"xehe/internal/gpu"
	"xehe/internal/isa"
	"xehe/internal/ntt"
	"xehe/internal/roofline"
)

// sweepConfigs are the size/instance grid of Figs. 12a/13a.
func sweepConfigs() []NTTConfig {
	return []NTTConfig{
		{4096, 8}, {8192, 8}, {16384, 8}, {32768, 8},
		{32768, 16}, {32768, 256}, {32768, 512}, {32768, 1024},
	}
}

// instanceSweep is the instance-count axis of Figs. 12b/13b.
func instanceSweep() []int { return []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024} }

func pct(x float64) string  { return fmt.Sprintf("%.2f%%", 100*x) }
func spd(x float64) string  { return fmt.Sprintf("%.2fx", x) }
func norm(x float64) string { return fmt.Sprintf("%.3f", x) }

// Fig5 reproduces the routine profiling: NTT share of each HE routine
// under the naive configuration on both devices (paper: ≈80.0% average
// on Device1, ≈75.6% on Device2).
func Fig5(spec gpu.DeviceSpec) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Fig. 5 — NTT share of HE evaluation routines (%s, naive config, N=32K L=8)", spec.Name),
		Headers: []string{"routine", "NTT share", "normalized time"},
	}
	var maxTotal float64
	results := make([]RoutineResult, 0, len(core.RoutineNames))
	for _, r := range core.RoutineNames {
		res := RunRoutine(spec, core.Naive(), r)
		results = append(results, res)
		if res.Total() > maxTotal {
			maxTotal = res.Total()
		}
	}
	for _, res := range results {
		t.Rows = append(t.Rows, []string{res.Routine, pct(res.NTTShare()), norm(res.Total() / maxTotal)})
	}
	return t
}

// Fig5Average returns the mean NTT share across routines.
func Fig5Average(spec gpu.DeviceSpec) float64 {
	var sum float64
	for _, r := range core.RoutineNames {
		sum += RunRoutine(spec, core.Naive(), r).NTTShare()
	}
	return sum / float64(len(core.RoutineNames))
}

// Table1 reproduces Table I: int64 ALU ops per work-item per round.
func Table1() *Table {
	t := &Table{
		Title:   "Table I — 64-bit integer ALU ops per work-item per NTT round",
		Headers: []string{"radix", "other", "butterfly", "total"},
	}
	for _, r := range []int{2, 4, 8, 16} {
		o, b, tot := ntt.RoundOps(r)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("radix-%d", r),
			fmt.Sprintf("%.0f", o), fmt.Sprintf("%.0f", b), fmt.Sprintf("%.0f", tot),
		})
	}
	return t
}

// variantSweep renders speedup (a) and efficiency (b) tables for a
// set of variants — the shared layout of Figs. 12, 13.
func variantSweep(spec gpu.DeviceSpec, title string, variants []ntt.Variant) []*Table {
	a := &Table{Title: title + " (a) speedup over naive", Headers: []string{"config"}}
	for _, v := range variants {
		a.Headers = append(a.Headers, v.String())
	}
	for _, cfg := range sweepConfigs() {
		row := []string{cfg.String()}
		for _, v := range variants {
			row = append(row, spd(NTTSpeedup(spec, v, isa.CompilerGenerated, 1, cfg)))
		}
		a.Rows = append(a.Rows, row)
	}
	b := &Table{Title: title + " (b) efficiency of 32K-point NTT vs instances", Headers: []string{"instances", "naive"}}
	for _, v := range variants {
		if v != ntt.NaiveRadix2 {
			b.Headers = append(b.Headers, v.String())
		}
	}
	for _, inst := range instanceSweep() {
		cfg := NTTConfig{32768, inst}
		row := []string{fmt.Sprintf("%d", inst), pct(NTTEfficiency(spec, ntt.NaiveRadix2, isa.CompilerGenerated, 1, cfg))}
		for _, v := range variants {
			if v != ntt.NaiveRadix2 {
				row = append(row, pct(NTTEfficiency(spec, v, isa.CompilerGenerated, 1, cfg)))
			}
		}
		b.Rows = append(b.Rows, row)
	}
	return []*Table{a, b}
}

// Fig12 reproduces the radix-2 SLM+SIMD trials on Device1.
func Fig12() []*Table {
	return variantSweep(gpu.Device1Spec(), "Fig. 12 — radix-2 NTT with SLM and SIMD on Device1",
		[]ntt.Variant{ntt.NaiveRadix2, ntt.SIMD8x8, ntt.SIMD16x8, ntt.SIMD32x8})
}

// Fig13 reproduces the high-radix SLM trials on Device1.
func Fig13() []*Table {
	return variantSweep(gpu.Device1Spec(), "Fig. 13 — high-radix NTT with SLM on Device1",
		[]ntt.Variant{ntt.NaiveRadix2, ntt.LocalRadix4, ntt.LocalRadix8, ntt.LocalRadix16})
}

// fig14Configs is the size/instance grid of Figs. 14/17.
func fig14Configs() []NTTConfig {
	return []NTTConfig{
		{8192, 64}, {8192, 128}, {8192, 256},
		{16384, 64}, {16384, 128}, {16384, 256},
		{32768, 64}, {32768, 128}, {32768, 256}, {32768, 512}, {32768, 1024},
	}
}

// Fig14a reproduces the inline-assembly step for the radix-8 NTT on
// Device1 (paper: +35.8%-40.7%, efficiency to 47.1%).
func Fig14a() *Table {
	spec := gpu.Device1Spec()
	t := &Table{
		Title:   "Fig. 14a — radix-8 SLM NTT with inline assembly on Device1",
		Headers: []string{"config", "eff w/o asm", "eff w/ asm", "asm speedup"},
	}
	for _, cfg := range fig14Configs() {
		without, _ := NTTRun(spec, ntt.LocalRadix8, isa.CompilerGenerated, 1, cfg, 8)
		with, _ := NTTRun(spec, ntt.LocalRadix8, isa.InlineASM, 1, cfg, 8)
		t.Rows = append(t.Rows, []string{
			cfg.String(),
			pct(NTTEfficiency(spec, ntt.LocalRadix8, isa.CompilerGenerated, 1, cfg)),
			pct(NTTEfficiency(spec, ntt.LocalRadix8, isa.InlineASM, 1, cfg)),
			spd(without / with),
		})
	}
	return t
}

// Fig14b reproduces the explicit dual-tile submission step on Device1
// (paper: 9.93x over naive, 79.8% of peak).
func Fig14b() *Table {
	spec := gpu.Device1Spec()
	t := &Table{
		Title:   "Fig. 14b — radix-8+asm NTT with explicit dual-tile submission on Device1",
		Headers: []string{"config", "eff naive", "eff opt 1-tile", "eff opt 2-tile", "speedup 2-tile"},
	}
	for _, cfg := range fig14Configs() {
		t.Rows = append(t.Rows, []string{
			cfg.String(),
			pct(NTTEfficiency(spec, ntt.NaiveRadix2, isa.CompilerGenerated, 1, cfg)),
			pct(NTTEfficiency(spec, ntt.LocalRadix8, isa.InlineASM, 1, cfg)),
			pct(NTTEfficiency(spec, ntt.LocalRadix8, isa.InlineASM, 2, cfg)),
			spd(NTTSpeedup(spec, ntt.LocalRadix8, isa.InlineASM, 2, cfg)),
		})
	}
	return t
}

// Fig15 reproduces the roofline analysis on Device1.
func Fig15() *Table {
	spec := gpu.Device1Spec()
	t := &Table{
		Title:   fmt.Sprintf("Fig. 15 — roofline on Device1 (knee %.1f int64 op/byte per tile)", spec.OperationalKnee()),
		Headers: []string{"variant", "density (op/B)", "roof (GIOPS)", "achieved (GIOPS)", "bound"},
	}
	n := 32768
	tbl := nttTables(n)
	cases := []struct {
		v     ntt.Variant
		asm   bool
		tiles int
		label string
	}{
		{ntt.NaiveRadix2, false, 1, "naive radix-2"},
		{ntt.SIMD8x8, false, 1, "SLM+simd radix-2"},
		{ntt.LocalRadix4, false, 1, "SLM+radix-4"},
		{ntt.LocalRadix8, false, 1, "SLM+radix-8"},
		{ntt.LocalRadix8, true, 2, "SLM+radix-8+dual-tile"},
	}
	for _, c := range cases {
		m := roofline.Model{Spec: spec, Tiles: c.tiles}
		p := m.Point(c.v, n, 8, 1024, []*ntt.Tables{tbl}, c.asm)
		t.Rows = append(t.Rows, []string{
			c.label,
			fmt.Sprintf("%.2f", p.Density),
			fmt.Sprintf("%.0f", p.RooflineGIOPS),
			fmt.Sprintf("%.0f", p.AchievedGIOPS),
			p.Bound,
		})
	}
	return t
}

// RoutineStep names one optimization stage of Figs. 16/18.
type RoutineStep struct {
	Name string
	Cfg  core.Config
}

// Fig16Steps are Device1's stages: naive → opt-NTT → +asm → +dual-tile.
func Fig16Steps() []RoutineStep {
	return []RoutineStep{
		{"naive", core.Naive()},
		{"opt-NTT", core.OptNTT()},
		{"opt-NTT+asm", core.OptNTTAsm()},
		{"opt-NTT+asm+dual-tile", core.OptNTTAsmDualTile()},
	}
}

// Fig18Steps are Device2's stages: naive → SIMD(8,8) → opt-NTT → +asm.
func Fig18Steps() []RoutineStep {
	return []RoutineStep{
		{"naive", core.Naive()},
		{"SIMD(8,8)", core.Config{NTT: ntt.SIMD8x8}},
		{"opt-NTT", core.OptNTT()},
		{"opt-NTT+asm", core.OptNTTAsm()},
	}
}

// RoutineStaircase renders a Fig. 16/18-style table: normalized
// execution time (NTT vs others) of the five routines across steps.
func RoutineStaircase(spec gpu.DeviceSpec, steps []RoutineStep, figure string) *Table {
	t := &Table{
		Title:   fmt.Sprintf("%s — HE evaluation routines on %s (normalized time, NTT/other split)", figure, spec.Name),
		Headers: []string{"routine", "step", "total", "NTT part", "other part", "speedup"},
	}
	for _, r := range core.RoutineNames {
		var base float64
		for i, st := range steps {
			res := RunRoutine(spec, st.Cfg, r)
			if i == 0 {
				base = res.Total()
			}
			t.Rows = append(t.Rows, []string{
				r, st.Name,
				norm(res.Total() / base),
				norm(res.NTTCycles / base),
				norm(res.OtherCycles / base),
				spd(base / res.Total()),
			})
		}
	}
	return t
}

// Fig16 reproduces the Device1 routine staircase (paper: 2.32x-3.05x).
func Fig16() *Table { return RoutineStaircase(gpu.Device1Spec(), Fig16Steps(), "Fig. 16") }

// Fig18 reproduces the Device2 routine staircase (paper: 2.32x-2.41x).
func Fig18() *Table { return RoutineStaircase(gpu.Device2Spec(), Fig18Steps(), "Fig. 18") }

// Fig17 reproduces the Device2 NTT benchmark.
func Fig17() *Table {
	spec := gpu.Device2Spec()
	t := &Table{
		Title:   "Fig. 17 — NTT on Device2 (efficiency / speedup over naive)",
		Headers: []string{"config", "naive", "SIMD(8,8)", "opt-NTT", "opt-NTT+asm", "speedup opt+asm"},
	}
	for _, cfg := range fig14Configs() {
		t.Rows = append(t.Rows, []string{
			cfg.String(),
			pct(NTTEfficiency(spec, ntt.NaiveRadix2, isa.CompilerGenerated, 1, cfg)),
			pct(NTTEfficiency(spec, ntt.SIMD8x8, isa.CompilerGenerated, 1, cfg)),
			pct(NTTEfficiency(spec, ntt.LocalRadix8, isa.CompilerGenerated, 1, cfg)),
			pct(NTTEfficiency(spec, ntt.LocalRadix8, isa.InlineASM, 1, cfg)),
			spd(NTTSpeedup(spec, ntt.LocalRadix8, isa.InlineASM, 1, cfg)),
		})
	}
	return t
}

// Fig19 reproduces the matMul application ablation on one device.
func Fig19(spec gpu.DeviceSpec) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Fig. 19 — element-wise polynomial matMul on %s (normalized time)", spec.Name),
		Headers: []string{"step"},
	}
	works := matmul.PaperWorkloads()
	for _, w := range works {
		t.Headers = append(t.Headers, w.String(), "speedup")
	}
	base := make([]float64, len(works))
	for i, st := range MatMulSteps() {
		row := []string{st.Name}
		for j, w := range works {
			tm := RunMatMul(spec, st.Cfg, w)
			if i == 0 {
				base[j] = tm
			}
			row = append(row, norm(tm/base[j]), spd(base[j]/tm))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// ScalingStudy extends the paper's future-work direction: NTT
// throughput scaling across tiles and across multiple simulated GPUs
// (Section V: "extending our HE library to multi-GPU ... platforms").
func ScalingStudy() *Table {
	t := &Table{
		Title:   "Extension — optimized NTT scaling across tiles / GPUs (32K, 1024 inst)",
		Headers: []string{"device", "tiles", "speedup vs 1 tile", "efficiency"},
	}
	base := gpu.Device1Spec()
	oneTile, _ := NTTRun(gpu.ScaledSpec(base, 1, 0.72), ntt.LocalRadix8, isa.InlineASM, 1, anchorCfg(), 8)
	for _, tiles := range []int{1, 2, 4} {
		spec := gpu.ScaledSpec(base, tiles, 0.72)
		cyc, nom := NTTRun(spec, ntt.LocalRadix8, isa.InlineASM, tiles, anchorCfg(), 8)
		t.Rows = append(t.Rows, []string{
			spec.Name, fmt.Sprintf("%d", tiles), spd(oneTile / cyc),
			pct(gpu.Efficiency(&spec, nom, cyc)),
		})
	}
	duo := gpu.MultiGPUSpec(2)
	cyc, nom := NTTRun(duo, ntt.LocalRadix8, isa.InlineASM, duo.Tiles, anchorCfg(), 8)
	t.Rows = append(t.Rows, []string{duo.Name, "4 (2 GPUs)", spd(oneTile / cyc),
		pct(gpu.Efficiency(&duo, nom, cyc))})
	return t
}

func anchorCfg() NTTConfig { return NTTConfig{N: 32768, Instances: 1024} }
