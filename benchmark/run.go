package main

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"xehe"
)

// options are the settings of one run of one workload.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	short   bool   // tiny shapes for benchmark_test.go; the numbers mean nothing
	outDir  string // where the traced run writes its spans and the program's trace
}

// env is what a workload's build function receives.
type env struct {
	options
	rec    *recorder
	tracer bool // build this instance with the program's tracing on
}

// workload is one set of inputs. build does the whole set-up — keys,
// inputs, oracle results, construction and one unmeasured warm rep —
// and is what setup_s times.
type workload struct {
	name      string
	why       string
	minReps   int
	heapLimit int64 // when set, the run keeps its heap mapped up to this many bytes (see pinHeap)
	// sens is how strongly the workload's host time follows the state of
	// the machine as the spin loop reads it: time moves as spin^-sens.
	// It is fitted, not chosen; README.md ("Noise") has the recording.
	sens  float64
	build func(e *env) (instance, error)
}

// pinHeap turns the proportional GC trigger off and sets a soft memory
// limit instead, so the collector runs only as the heap nears the
// limit and the runtime does not return memory to the OS between reps.
// The returned function restores the previous pacing.
func pinHeap(limit int64) (restore func()) {
	gc := debug.SetGCPercent(-1)
	old := debug.SetMemoryLimit(limit)
	return func() {
		debug.SetGCPercent(gc)
		debug.SetMemoryLimit(old)
	}
}

// instance is a constructed workload ready to run measured reps.
type instance interface {
	// rep runs one measured rep and checks its outputs.
	rep() repOut
	// sim reads the instance's simulated clock in seconds.
	sim() float64
	// writeTrace stores the program's own trace (tracer instances only).
	writeTrace(dir string) error
	close()
}

// repOut is what one rep measured. Only the interval between the two
// measure calls inside rep counts towards wall and alloc; output
// checking happens after it.
type repOut struct {
	ops, failed int
	wall, sim   float64 // seconds on the host and the simulated clock
	cpu         float64 // seconds of user+system CPU time the process used
	allocBytes  uint64
	layer       map[string]float64 // S metrics of this rep
	traceLayer  map[string]float64 // T metrics of this rep (tracer instances only)
	broken      []string           // violated invariants beyond per-op failures
}

// measure brackets the timed part of a rep.
type measure struct {
	start time.Time
	cpu   float64
	alloc uint64
}

// cpuSeconds is the user+system CPU time of the process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func beginMeasure() measure {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return measure{alloc: ms.TotalAlloc, cpu: cpuSeconds(), start: time.Now()}
}

func (m measure) end(out *repOut) {
	out.wall = time.Since(m.start).Seconds()
	out.cpu = cpuSeconds() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.allocBytes = ms.TotalAlloc - m.alloc
}

// result is one finished run of one workload.
type result struct {
	workload  string
	traced    bool
	correct   bool
	attempted int
	failed    int
	reps      int
	led       ledger
	broken    []string
	disturbed bool
}

// setupRepeats is how many times the untraced run sets the workload
// up; setup_s is the median, so the one-off costs of a fresh process
// (first page faults, lazily built tables) do not set it.
const setupRepeats = 3

// run is one run of one workload in progress.
type run struct {
	w   workload
	opt options
	rec *recorder
	res *result
	g   *gauge
}

// runWorkload runs w once under opt: the untraced run measures the
// end-to-end metrics, the traced run the per-layer ones.
func runWorkload(w workload, opt options) (result, error) {
	res := result{workload: w.name, traced: opt.traced, led: ledger{}}
	r := &run{w: w, opt: opt, rec: newRecorder(w.name), res: &res, g: newGauge(opt.short, w.sens)}
	if w.heapLimit > 0 {
		defer pinHeap(w.heapLimit)()
	}

	var err error
	if opt.traced {
		err = r.traced()
	} else {
		err = r.untraced()
	}
	if err != nil {
		return res, err
	}

	res.led["machine.spin_mops"] = r.g.all
	drift := r.g.driftPct()
	res.disturbed = drift > disturbedDriftPct
	res.led.add("machine.spin_drift_pct", drift)
	res.correct = res.failed == 0 && len(res.broken) == 0 && res.attempted > 0
	return res, nil
}

// build sets the workload up once and records how long that took.
func (r *run) build(tracer bool) (instance, error) {
	e := &env{options: r.opt, rec: r.rec, tracer: tracer}
	id := r.rec.begin("setup")
	inst, err := r.w.build(e)
	r.rec.sim = nil
	secs := r.rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", r.w.name, err)
	}
	r.rec.sim = inst.sim
	r.res.led.add("host.raw_setup_s", secs)
	r.res.led.add("setup_s", secs*r.g.factor())
	return inst, nil
}

// measureReps runs reps of inst for about seconds (at least minReps),
// folds them into the result and returns the median host rate.
func (r *run) measureReps(inst instance, seconds float64, minReps int, keepLayer, keepTrace bool) float64 {
	res := r.res
	var rates []float64
	start := time.Now()
	for n := 0; n < minReps || time.Since(start).Seconds() < seconds; n++ {
		r.rec.rep = res.reps
		id := r.rec.begin("rep")
		out := inst.rep()
		r.rec.end(id)
		r.rec.rep = -1
		f := r.g.factor()
		res.reps++
		res.attempted += out.ops
		res.failed += out.failed
		res.broken = append(res.broken, out.broken...)
		ops := float64(out.ops)
		rates = append(rates, ops/out.wall/f)
		if keepLayer {
			res.led.add("host_ops_per_s", ops/out.wall/f)
			res.led.add("host_cpu_ms_per_op", out.cpu*1e3/ops*f)
			res.led.add("host.raw_ops_per_s", ops/out.wall)
			res.led.add("host.raw_cpu_ms_per_op", out.cpu*1e3/ops)
			res.led.add("host.alloc_mb_per_op", float64(out.allocBytes)/1e6/ops)
			res.led.add("sim.ops_per_s", ops/out.sim)
			res.led.addAll(out.layer)
		}
		if keepTrace {
			res.led.addAll(out.traceLayer)
		}
	}
	return median(rates)
}

func (r *run) untraced() error {
	repeats := setupRepeats
	if r.opt.short {
		repeats = 1
	}
	var inst instance
	for i := 0; i < repeats; i++ {
		if inst != nil {
			inst.close()
		}
		var err error
		if inst, err = r.build(false); err != nil {
			return err
		}
	}
	defer inst.close()
	minReps := r.w.minReps
	if r.opt.short {
		minReps = 2
	}
	r.measureReps(inst, r.opt.seconds, minReps, true, false)
	return nil
}

// traced spends half of the time on untraced reps (the S metrics and
// the untraced host rate), a quarter on reps of a second instance built
// with the program's tracing on (the T metrics, and against the first
// rate the tracing overhead), and then runs the layer probes.
func (r *run) traced() error {
	plain, err := r.build(false)
	if err != nil {
		return err
	}
	minReps := 2
	if r.opt.short {
		minReps = 1
	}
	off := r.measureReps(plain, r.opt.seconds/2, minReps, true, false)
	plain.close()

	traced, err := r.build(true)
	if err != nil {
		return err
	}
	defer traced.close()
	on := r.measureReps(traced, r.opt.seconds/4, minReps, false, true)
	r.res.led.add("obs.trace_host_overhead_pct", 100*(off/on-1))

	r.rec.sim = nil
	runProbes(r.rec, r.res.led, r.opt.short)

	if err := traced.writeTrace(r.opt.outDir); err != nil {
		return fmt.Errorf("%s: writing the program's trace: %w", r.w.name, err)
	}
	if err := r.rec.write(r.opt.outDir, r.w.name+".spans.json"); err != nil {
		return fmt.Errorf("%s: writing the benchmark's spans: %w", r.w.name, err)
	}
	return nil
}

// randVec draws n complex values with both parts in [-1, 1).
func randVec(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return v
}

// modelTol is how far a decrypted slot may sit from the plaintext model.
const modelTol = 1e-3

// checkModel decrypts ct and compares every slot with want.
func checkModel(kit *xehe.KeyKit, ct *xehe.Ciphertext, want []complex128, what string) error {
	got := kit.Decrypt(ct)
	for i := range want {
		if d := cmplx.Abs(got[i] - want[i]); d > modelTol {
			return fmt.Errorf("%s: slot %d decrypts %v, the plaintext model says %v (off by %.2e)", what, i, got[i], want[i], d)
		}
	}
	return nil
}

// bitEqual reports whether two ciphertexts are bit-for-bit equal.
func bitEqual(a, b *xehe.Ciphertext) bool {
	if a == nil || b == nil || len(a.Value) != len(b.Value) || a.Level != b.Level || a.Scale != b.Scale {
		return false
	}
	for i := range a.Value {
		if !a.Value[i].Equal(b.Value[i]) {
			return false
		}
	}
	return true
}

// rotate1 is the plaintext model of Rotate(·, 1).
func rotate1(v []complex128) []complex128 {
	out := make([]complex128, len(v))
	for i := range v {
		out[i] = v[(i+1)%len(v)]
	}
	return out
}
