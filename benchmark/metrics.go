package main

import "fmt"

// metricDef names one metric the benchmark prints. The end-to-end
// table must equal BENCHMARK.json's "end_to_end" and the per-layer
// table its "per_layer" (benchmark_test.go compares them), so a metric
// is added or renamed in both places or not at all.
type metricDef struct {
	name   string
	unit   string
	clock  string  // "host" (wall), "sim" (simulated device clock) or "-" (a count or share)
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	source string  // E end-to-end, S stats delta, T parsed trace, P probe
	// paper is the paper's figure for this number as a range (both ends
	// equal for a single figure, zero when it has none), and gap what
	// calibration_test.go already records about the model missing it.
	paper [2]float64
	gap   string
}

// reference prints the paper's figure next to a value v of the metric,
// with the model's error against it: the distance to the nearer end of
// the range over that end, zero inside it.
func (d metricDef) reference(v float64) string {
	lo, hi := d.paper[0], d.paper[1]
	if hi == 0 {
		return ""
	}
	off := 0.0
	switch {
	case v < lo:
		off = 100 * (v - lo) / lo
	case v > hi:
		off = 100 * (v - hi) / hi
	}
	figure := fmt.Sprintf("%g", lo)
	if hi != lo {
		figure = fmt.Sprintf("%g-%g", lo, hi)
	}
	s := fmt.Sprintf("   [paper %s%s, model off by %+.1f%%", figure, d.unit, off)
	if d.gap != "" {
		s += "; " + d.gap
	}
	return s + "]"
}

// endToEnd are the metrics a caller of the library sees, all on the
// host clock. Every workload prints every one of them and none can
// read zero or repeat exactly between runs, which is why the
// simulated-clock results live in perLayer (see README.md, "Two
// clocks").
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", clock: "host", better: "lower", bound: 0.25, source: "E"},
	{name: "host_ops_per_s", unit: "1/s", clock: "host", better: "higher", bound: 0.25, source: "E"},
	{name: "host_cpu_ms_per_op", unit: "ms", clock: "host", better: "lower", bound: 0.25, source: "E"},
}

// routines are the five evaluator calls of one eval_routines round,
// in call order.
var routines = []string{"add", "mul_relin", "mul_relin_rescale", "square_relin_rescale", "rotate"}

// fhebenchRoutines maps the routines fhebench.RunRoutine also models
// to their names there (Add has no staircase in the paper).
var fhebenchRoutines = map[string]string{
	"mul_relin":            "MulLin",
	"mul_relin_rescale":    "MulLinRS",
	"square_relin_rescale": "SqrLinRS",
	"rotate":               "Rotate",
}

// matmulRuns are the four simulated matMul runs of one matmul_analytic
// rep: the paper's two instances under the first and last step of
// fhebench.MatMulSteps().
var matmulRuns = []string{"100x10x1.baseline", "100x10x1.memcache", "10x9x8.baseline", "10x9x8.memcache"}

// What calibration_test.go records where the model misses the paper.
const (
	gapRoutines = "known gap: calibration_test.go records 4.4-5.4x (no unbatched-NTT underutilisation in the model)"
	gapMatmul   = "known gap: calibration_test.go records 1.5-2.1x over all four steps (dyadic kernels bandwidth-bound in the model); the abstract's 3.10x is the best case"
)

var paperRoutines = [2]float64{2.32, 3.05} // Fig. 16, Device1, over the routines

// perLayer are the single-layer metrics of the traced run, grouped by
// the layer (package) they are measured at. A metric that does not
// apply to a workload reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	d := []metricDef{
		// The simulated clock's view of the whole workload. Exact on
		// eval_routines and matmul_analytic, a median on serve_*.
		{name: "sim.ops_per_s", unit: "1/s", clock: "sim", better: "higher", source: "S"},
		{name: "sim.p50_ms", unit: "ms", clock: "sim", better: "lower", source: "S"},
		{name: "sim.p99_ms", unit: "ms", clock: "sim", better: "lower", source: "S"},
		{name: "sim.interactive_p50_ms", unit: "ms", clock: "sim", better: "lower", source: "S"},

		// Go heap allocated per op. It repeats to the byte on the serial
		// workloads, which is why it is not an end-to-end metric here.
		{name: "host.alloc_mb_per_op", unit: "MB/op", clock: "host", better: "lower", source: "S"},

		// The host clock as it read on this machine, before the spin
		// loop stated it for the reference machine (see gauge).
		{name: "host.raw_setup_s", unit: "s", clock: "host", better: "lower", source: "S"},
		{name: "host.raw_ops_per_s", unit: "1/s", clock: "host", better: "higher", source: "S"},
		{name: "host.raw_cpu_ms_per_op", unit: "ms", clock: "host", better: "lower", source: "S"},

		{name: "sched.submit_host_us", unit: "us", clock: "host", better: "lower", source: "P"},
		{name: "sched.worker_idle_wall_share", unit: "share", clock: "host", better: "lower", source: "S"},
		{name: "sched.batch_mean_jobs", unit: "jobs", clock: "-", better: "higher", source: "S"},
		{name: "sched.fused_step_share", unit: "share", clock: "-", better: "higher", source: "S"},
		{name: "sched.stall_copy_sim_ms", unit: "ms", clock: "sim", better: "lower", source: "S"},
		{name: "sched.queue_sim_ms", unit: "ms", clock: "sim", better: "lower", source: "T"},
		{name: "sched.settle_sim_ms", unit: "ms", clock: "sim", better: "lower", source: "T"},
		{name: "sched.dep_park_sim_ms", unit: "ms", clock: "sim", better: "lower", source: "S"},
		{name: "sched.resident_hit_share", unit: "share", clock: "-", better: "higher", source: "S"},
		{name: "sched.stolen_jobs", unit: "count", clock: "-", better: "lower", source: "S"},

		{name: "qos.pick_host_ns", unit: "ns", clock: "host", better: "lower", source: "P"},
		{name: "qos.interactive_p99_sim_ms", unit: "ms", clock: "sim", better: "lower", source: "S"},
		{name: "qos.batch_p50_sim_ms", unit: "ms", clock: "sim", better: "lower", source: "S"},
		{name: "qos.background_p50_sim_ms", unit: "ms", clock: "sim", better: "lower", source: "S"},
		{name: "qos.deadline_hit_share", unit: "share", clock: "-", better: "higher", source: "S"},
		{name: "qos.shed_share", unit: "share", clock: "-", better: "lower", source: "S"},
	}
	for _, r := range routines {
		d = append(d, metricDef{name: "core.host_ms_per_call." + r, unit: "ms", clock: "host", better: "lower", source: "S"})
	}
	for _, r := range routines {
		d = append(d, metricDef{name: "core.sim_us_per_call." + r, unit: "us", clock: "sim", better: "lower", source: "S"})
	}
	for _, r := range routines {
		if _, ok := fhebenchRoutines[r]; ok {
			d = append(d, metricDef{name: "core.sim_speedup_vs_naive." + r, unit: "x", clock: "sim", better: "higher", source: "P", paper: paperRoutines, gap: gapRoutines})
		}
	}
	d = append(d,
		metricDef{name: "core.sim_share.ntt", unit: "share", clock: "sim", better: "lower", source: "T"},
		metricDef{name: "core.sim_share.elementwise", unit: "share", clock: "sim", better: "lower", source: "T"},
		metricDef{name: "core.sim_share.keyswitch", unit: "share", clock: "sim", better: "lower", source: "T"},
		metricDef{name: "core.sim_share.copy", unit: "share", clock: "sim", better: "lower", source: "T"},
		metricDef{name: "core.launches_per_op", unit: "count", clock: "-", better: "lower", source: "T"},

		metricDef{name: "ntt.host_ns_per_butterfly.n4096", unit: "ns", clock: "host", better: "lower", source: "P"},
		metricDef{name: "ntt.host_ns_per_butterfly.n32768", unit: "ns", clock: "host", better: "lower", source: "P"},
		metricDef{name: "ntt.sim_eff_pct.device1", unit: "%", clock: "sim", better: "higher", source: "P", paper: [2]float64{79.8, 79.8}},
		metricDef{name: "ntt.sim_eff_pct.device2", unit: "%", clock: "sim", better: "higher", source: "P", paper: [2]float64{85.7, 85.7}},
		metricDef{name: "ntt.sim_speedup_vs_naive.device1", unit: "x", clock: "sim", better: "higher", source: "P", paper: [2]float64{9.93, 9.93}},

		metricDef{name: "gpu.launch_host_us", unit: "us", clock: "host", better: "lower", source: "P"},
		metricDef{name: "gpu.submit_host_ns", unit: "ns", clock: "host", better: "lower", source: "P"},
		metricDef{name: "gpu.tile_busy_share", unit: "share", clock: "sim", better: "higher", source: "T"},
		metricDef{name: "gpu.copy_busy_share", unit: "share", clock: "sim", better: "higher", source: "T"},

		metricDef{name: "sycl.malloc_host_us_per_mb", unit: "us/MB", clock: "host", better: "lower", source: "P"},
		metricDef{name: "sycl.h2d_mb_per_op", unit: "MB/op", clock: "-", better: "lower", source: "S"},
		metricDef{name: "sycl.d2h_mb_per_op", unit: "MB/op", clock: "-", better: "lower", source: "S"},
		metricDef{name: "sycl.transfer_batches_per_op", unit: "count", clock: "-", better: "lower", source: "S"},

		metricDef{name: "memcache.hit_share", unit: "share", clock: "-", better: "higher", source: "S"},
		metricDef{name: "memcache.pinned_after_drain", unit: "count", clock: "-", better: "lower", source: "S"},
		metricDef{name: "memcache.malloc_free_host_ns", unit: "ns", clock: "host", better: "lower", source: "P"},
	)
	for _, p := range []string{"demo", "bench"} {
		d = append(d,
			metricDef{name: "ckks.keygen_s." + p, unit: "s", clock: "host", better: "lower", source: "P"},
			metricDef{name: "ckks.encrypt_ms." + p, unit: "ms", clock: "host", better: "lower", source: "P"},
			metricDef{name: "ckks.decrypt_ms." + p, unit: "ms", clock: "host", better: "lower", source: "P"},
		)
	}
	d = append(d,
		metricDef{name: "obs.trace_host_overhead_pct", unit: "%", clock: "host", better: "lower", source: "T"},
		metricDef{name: "obs.spans_recorded", unit: "count", clock: "-", better: "higher", source: "T"},
		metricDef{name: "obs.spans_dropped", unit: "count", clock: "-", better: "lower", source: "T"},

		metricDef{name: "matmul.sim_speedup.100x10x1", unit: "x", clock: "sim", better: "higher", source: "S", paper: [2]float64{2.68, 2.68}, gap: gapMatmul},
		metricDef{name: "matmul.sim_speedup.10x9x8", unit: "x", clock: "sim", better: "higher", source: "S", paper: [2]float64{2.79, 2.79}, gap: gapMatmul},
	)
	for _, r := range matmulRuns {
		d = append(d, metricDef{name: "matmul.host_s_per_run." + r, unit: "s", clock: "host", better: "lower", source: "S"})
	}
	d = append(d,
		metricDef{name: "machine.spin_mops", unit: "Mop/s", clock: "host", better: "higher", source: "P"},
		metricDef{name: "machine.spin_drift_pct", unit: "%", clock: "host", better: "lower", source: "P"},
	)
	return d
}

// ledger collects the samples of every metric of one run, one sample
// per rep (or per probe call); the printed value is their median.
type ledger map[string][]float64

func (l ledger) add(name string, v float64) { l[name] = append(l[name], v) }

// addAll appends one rep's per-layer values.
func (l ledger) addAll(m map[string]float64) {
	for k, v := range m {
		l.add(k, v)
	}
}
