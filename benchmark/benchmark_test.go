package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// spec mirrors BENCHMARK.json at the root of the repository.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesTables pins BENCHMARK.json to the tables the program
// prints from, inside the limits of the benchmark contract.
func TestSpecMatchesTables(t *testing.T) {
	s := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(s.Workloads) != len(workloads) || len(s.Workloads) > 8 {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d (at most 8)", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their whys differ)", i, s.Workloads[i].Name, w.name)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.name, len(w.why))
		}
	}

	check := func(kind string, got []specMetric, want []metricDef, limit int, bounded bool) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d (at most %d)", kind, len(got), len(want), limit)
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %s [%s] %s", kind, i, g, d.name, d.unit, d.better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %s: bound missing, different from the program's %v, or outside (0, 0.25]", kind, d.name, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: a per-layer metric has no bound", kind, d.name)
			}
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s %s [%s]: bad or repeated name, or bad unit", kind, d.name, d.unit)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd, 16, true)
	check("per_layer", s.PerLayer, perLayer, 128, false)
}

// TestWorkloadsShort runs every workload untraced and traced at the
// -short size: all outputs correct, every named metric printed, the
// end-to-end ones non-zero, and the simulated throughput of the two
// serial workloads bit-equal across reps.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			opt := options{seed: 7, seconds: 0.01, short: true, traced: traced, outDir: t.TempDir()}
			res, err := runWorkload(w, opt)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.correct || res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d broken=%v", w.name, traced, res.correct, res.failed, res.attempted, res.broken)
			}
			metrics := res.summary()["metrics"].(map[string]any)
			if len(metrics) != len(res.defs()) {
				t.Errorf("%s traced=%v: %d metrics printed, %d named", w.name, traced, len(metrics), len(res.defs()))
			}
			for _, d := range res.defs() {
				v, ok := metrics[d.name].(map[string]any)
				if !ok {
					t.Errorf("%s traced=%v: %s not printed", w.name, traced, d.name)
				} else if !traced && v["value"].(float64) <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v", w.name, d.name, v["value"])
				}
			}
			if sim := res.led["sim.ops_per_s"]; !traced && (w.name == "eval_routines" || w.name == "matmul_analytic") {
				if len(sim) < 2 {
					t.Errorf("%s: %d reps, need two to compare", w.name, len(sim))
				}
				for _, v := range sim {
					if v != sim[0] {
						t.Errorf("%s: sim.ops_per_s %v then %v, must repeat exactly", w.name, sim[0], v)
					}
				}
			}
		}
	}
}
