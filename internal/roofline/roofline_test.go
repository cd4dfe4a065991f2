package roofline

import (
	"testing"

	"xehe/internal/gpu"
	"xehe/internal/isa"
	"xehe/internal/ntt"
	"xehe/internal/xmath"
)

func model(t *testing.T) (*Model, *ntt.Tables) {
	t.Helper()
	p := xmath.GeneratePrimes(50, 1, 32768)[0]
	tbl := ntt.NewTables(32768, xmath.NewModulus(p))
	return &Model{Spec: gpu.Device1Spec(), Tiles: 1}, tbl
}

func TestDensities(t *testing.T) {
	m, tbl := model(t)
	naive := m.Density(ntt.NaiveRadix2, 32768, []*ntt.Tables{tbl})
	if naive < 1.3 || naive > 1.6 {
		t.Errorf("naive density = %.2f, want ~1.5 (Section IV-B)", naive)
	}
	r8 := m.Density(ntt.LocalRadix8, 32768, []*ntt.Tables{tbl})
	if r8 < 8.3 || r8 > 9.5 {
		t.Errorf("radix-8 density = %.2f, want ~8.9", r8)
	}
	if !(r8 > m.Density(ntt.LocalRadix4, 32768, []*ntt.Tables{tbl})) {
		t.Error("radix-8 must have higher density than radix-4")
	}
}

func TestPointBounds(t *testing.T) {
	m, tbl := model(t)
	naive := m.Point(ntt.NaiveRadix2, 32768, 8, 1024, []*ntt.Tables{tbl}, false)
	if naive.Bound != "memory" {
		t.Errorf("naive must be memory bound, got %q", naive.Bound)
	}
	if naive.AchievedGIOPS > naive.RooflineGIOPS*1.01 {
		t.Error("achieved throughput cannot exceed the roofline")
	}
	r8 := m.Point(ntt.LocalRadix8, 32768, 8, 1024, []*ntt.Tables{tbl}, false)
	if r8.Bound != "compute" {
		t.Errorf("radix-8 must be compute bound, got %q", r8.Bound)
	}
	if r8.AchievedGIOPS <= naive.AchievedGIOPS {
		t.Error("radix-8 must achieve more than naive")
	}
}

// TestEfficiencyConsistentWithPoint ties the efficiency figures, which
// divide Run's nominal ops by its cycles and the device peak, to Fig.
// 15's achieved throughput from the same run.
func TestEfficiencyConsistentWithPoint(t *testing.T) {
	m, tbl := model(t)
	batch := make([]*ntt.Tables, 8)
	for i := range batch {
		batch[i] = tbl
	}
	cycles, nominal := Run(m.Spec, ntt.LocalRadix8, isa.CompilerGenerated, m.Tiles, 1024, batch)
	eff := gpu.Efficiency(&m.Spec, nominal, cycles)
	p := m.Point(ntt.LocalRadix8, 32768, 8, 1024, []*ntt.Tables{tbl}, false)
	if want := p.AchievedGIOPS / m.Spec.PeakGIOPS(); want != eff {
		t.Errorf("efficiency %.4f inconsistent with point %.4f", eff, want)
	}
}

func TestDualTileRaisesRoof(t *testing.T) {
	_, tbl := model(t)
	one := Model{Spec: gpu.Device1Spec(), Tiles: 1}
	two := Model{Spec: gpu.Device1Spec(), Tiles: 2}
	p1 := one.Point(ntt.LocalRadix8, 32768, 8, 1024, []*ntt.Tables{tbl}, true)
	p2 := two.Point(ntt.LocalRadix8, 32768, 8, 1024, []*ntt.Tables{tbl}, true)
	if p2.RooflineGIOPS <= p1.RooflineGIOPS {
		t.Error("second tile must raise the compute roof")
	}
	if p2.AchievedGIOPS <= p1.AchievedGIOPS {
		t.Error("second tile must raise achieved throughput")
	}
}
