// Command benchmark is the repository's benchmark: four workloads
// over the public surface of package xehe, end-to-end metrics on the
// host clock, and a ledger of per-layer metrics on both clocks that is
// measured entirely from outside the program. README.md has the
// tables; BENCHMARK.json at the root of the repository names the
// command, the workloads and the metrics.
//
//	bash benchmark/run.sh --workload serve_stream --seed 1 --seconds 24 --trace 0
//	bash benchmark/run.sh --seed 1 --trace 1     # all workloads, untraced then traced
//	bash benchmark/run.sh --selfcheck            # the whole suite twice, compared with the bounds
//
// The report goes to standard error; the last line of standard output
// of a run of one workload is its result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

var workloads = []workload{
	{
		name: "serve_stream", minReps: 5, sens: 0.6, build: buildServeStream,
		why: "ROADMAP's standard stream: uniform MulRelinRescale+Rotate jobs through xehe.Service on Device1; ~91% of host time is functional NTT bodies, its sim time is what coalescing, fusion and overlap move",
	},
	{
		name: "serve_mixed_graph", minReps: 5, sens: 0.4, build: buildServeMixedGraph,
		why: "same sched layer used differently: 3 QoS classes, deadlines, depth-4 InputFrom chains on 2x Device2, small batches, Rotate/Add-heavy; a stream gain that costs QoS latency or graph residency shows here",
	},
	{
		name: "eval_routines", minReps: 3, sens: 0.5, build: buildEvalRoutines,
		why: "the paper's routines at N=32768, L=8 on the serial GPUEvaluator, Device1 then Device2: no sched/qos on the path, working set beyond cache; bypass for scheduler changes, mechanism for kernel bodies",
	},
	{
		name: "matmul_analytic", minReps: 3, sens: 0.2, heapLimit: matmulHeapLimit, build: buildMatmulAnalytic,
		why: "the paper's matMul in timing-only mode: kernel bodies skipped, host time is buffer allocation, zeroing and command bookkeeping; mechanism for allocation work, bypass for butterfly work; sim is exact",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var opt options
	name := flag.String("workload", "", "run one workload (default: all of them)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the key material, plaintext values and job interleave")
	flag.Float64Var(&opt.seconds, "seconds", 24, "how long one run measures")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (with no -workload: both)")
	flag.BoolVar(&opt.short, "short", false, "tiny shapes, for the benchmark's own test")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced suite twice and compare every end-to-end metric with its bound")
	flag.StringVar(&opt.outDir, "out", "benchmark/out", "directory for the traced run's spans and traces")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-selfcheck]")
		os.Exit(2)
	}

	fmt.Fprintln(os.Stderr, describeMachine())
	switch {
	case *selfcheck:
		os.Exit(runSelfcheck(opt))
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			os.Exit(2)
		}
		opt.traced = *trace == 1
		if _, ok := runAndPrint(w, opt); !ok {
			os.Exit(1)
		}
	default:
		ok := true
		for _, w := range workloads {
			for t := 0; t <= *trace; t++ {
				opt.traced = t == 1
				_, good := runAndPrint(w, opt)
				ok = ok && good
			}
		}
		if !ok {
			os.Exit(1)
		}
	}
}

// runAndPrint runs one workload once, prints its report and its JSON
// line, and reports whether the run completed (a run that completes
// with wrong outputs still prints, with "correct": false).
func runAndPrint(w workload, opt options) (result, bool) {
	res, err := runWorkload(w, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return res, false
	}
	report(os.Stderr, res)
	if err := json.NewEncoder(os.Stdout).Encode(res.summary()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return res, false
	}
	return res, true
}

// defs returns the metrics a run of this kind prints.
func (r result) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// summary is the run's machine-readable result.
func (r result) summary() map[string]any {
	metrics := map[string]any{}
	for _, d := range r.defs() {
		metrics[d.name] = map[string]any{"value": median(r.led[d.name]), "unit": d.unit}
	}
	return map[string]any{"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics}
}

func report(w *os.File, r result) {
	kind := "untraced"
	if r.traced {
		kind = "traced"
	}
	state := ""
	if r.disturbed {
		state = fmt.Sprintf("  DISTURBED (the spin loop drifted %.1f%% > %.0f%% during the run)", median(r.led["machine.spin_drift_pct"]), disturbedDriftPct)
	}
	fmt.Fprintf(w, "\n== %s (%s): %d reps, %d ops attempted, %d failed, failed_share %.4g, correct=%v%s\n",
		r.workload, kind, r.reps, r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)), r.correct, state)
	for _, b := range r.broken {
		fmt.Fprintf(w, "   BROKEN: %s\n", b)
	}
	fmt.Fprintf(w, "   %-46s %-6s %-5s %-3s %4s %14s %14s %14s\n", "metric", "unit", "clock", "src", "n", "median", "q1", "q3")
	absent := 0
	for _, d := range r.defs() {
		v := r.led[d.name]
		if len(v) == 0 {
			absent++ // does not apply to this workload; reads 0 in the JSON line
			continue
		}
		q1, med, q3 := quartiles(v)
		fmt.Fprintf(w, "   %-46s %-6s %-5s %-3s %4d %14.6g %14.6g %14.6g%s\n", d.name, d.unit, d.clock, d.source, len(v), med, q1, q3, d.reference(med))
	}
	if absent > 0 {
		fmt.Fprintf(w, "   (%d metrics do not apply to this workload and read 0)\n", absent)
	}
	if r.traced {
		return
	}
	// What the end-to-end values were made from: the host clock as it
	// read on this machine, and the spin loop that states it for the
	// reference machine.
	for _, d := range perLayer {
		if v := r.led[d.name]; strings.HasPrefix(d.name, "host.raw_") || strings.HasPrefix(d.name, "machine.") {
			q1, med, q3 := quartiles(v)
			fmt.Fprintf(w, "   %-46s %-6s %-5s %-3s %4d %14.6g %14.6g %14.6g\n", d.name, d.unit, d.clock, d.source, len(v), med, q1, q3)
		}
	}
	// The series a fit of the workload's exponent needs (README.md, "Noise").
	for _, name := range []string{"host_ops_per_s", "host.raw_ops_per_s", "machine.spin_mops"} {
		fmt.Fprintf(w, "   %s by rep:", name)
		for _, v := range r.led[name] {
			fmt.Fprintf(w, " %.4g", v)
		}
		fmt.Fprintln(w)
	}
}

// runSelfcheck runs the untraced suite twice in this process and
// compares, per workload, every end-to-end metric of the second pass
// with the first against the metric's bound. The simulated throughput
// of the two serial workloads must agree exactly.
func runSelfcheck(opt options) int {
	opt.traced = false
	var passes [2]map[string]result
	for p := range passes {
		passes[p] = map[string]result{}
		for _, w := range workloads {
			res, ok := runAndPrint(w, opt)
			if !ok || !res.correct {
				fmt.Fprintf(os.Stderr, "selfcheck: %s did not complete correctly\n", w.name)
				return 1
			}
			passes[p][w.name] = res
		}
	}
	bad := 0
	fmt.Fprintf(os.Stderr, "\n== selfcheck: second pass against the first\n   %-20s %-24s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, w := range workloads {
		a, b := passes[0][w.name], passes[1][w.name]
		for _, d := range endToEnd {
			x, y := median(a.led[d.name]), median(b.led[d.name])
			worse := (y - x) / x
			if d.better == "higher" {
				worse = (x - y) / x
			}
			verdict := ""
			if worse > d.bound {
				verdict = "  EXCEEDS"
				bad++
			}
			fmt.Fprintf(os.Stderr, "   %-20s %-24s %14.6g %14.6g %8.1f%% %6.0f%%%s\n", w.name, d.name, x, y, 100*worse, 100*d.bound, verdict)
		}
		if strings.HasPrefix(w.name, "serve_") {
			continue
		}
		if x, y := median(a.led["sim.ops_per_s"]), median(b.led["sim.ops_per_s"]); x != y {
			fmt.Fprintf(os.Stderr, "   %-20s sim.ops_per_s %v then %v: the serial path must repeat exactly  EXCEEDS\n", w.name, x, y)
			bad++
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
