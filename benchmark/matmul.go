package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"xehe/internal/apps/matmul"
	"xehe/internal/ckks"
	"xehe/internal/core"
	"xehe/internal/fhebench"
	"xehe/internal/gpu"
	"xehe/internal/poly"
)

// matmul_analytic is the paper's §IV-E application in the program's
// timing-only mode: kernel bodies are skipped, so what the host pays
// is buffer allocation, zeroing and command bookkeeping, and what the
// simulated clock reads is a pure function of the model.

// matmulHeapLimit is the soft memory limit the whole workload runs
// under, with the proportional GC trigger off (see pinHeap).
// matMul_100x10x1 keeps 1.2 GB of accumulators live until it returns;
// under the default pacing the runtime hands that memory back to the OS
// between runs and faults it in again in the next one, and on the
// 2-core VM this was sized on a fault costs 2 to 15 us depending on the
// moment, which moved a run's host time between 0.03 s and 7.7 s. With
// the heap left mapped the same run repeats within a few percent and
// what remains is the program's own work (memclr and bookkeeping).
const matmulHeapLimit = 2 << 30

// matmulRun is one simulated matMul: an instance under a config.
type matmulRun struct {
	name string
	w    matmul.Workload
	cfg  core.Config
	a, b [][]*ckks.Ciphertext
	ref  matmulRef
}

// matmulRef is what a run must repeat exactly.
type matmulRef struct {
	hostCycles, deviceCycles float64
	driverAllocs             int64
	cacheHits, cacheMisses   int64
	commands                 int // tracer instances only
}

type matmulInstance struct {
	rec    *recorder
	tracer bool
	params *ckks.Parameters
	runs   []matmulRun // in matmulRuns order
	order  []int       // the seed's order of the runs inside a rep
	devs   map[string]*gpu.Device
}

// shapeMatrix builds a rows x cols matrix of ciphertexts that share
// one pair of zero polynomials: in timing-only mode only the shapes
// are read.
func shapeMatrix(params *ckks.Parameters, rows, cols int) [][]*ckks.Ciphertext {
	level := params.MaxLevel()
	shared := []*poly.Poly{poly.New(params.N, level+1), poly.New(params.N, level+1)}
	m := make([][]*ckks.Ciphertext, rows)
	for i := range m {
		m[i] = make([]*ckks.Ciphertext, cols)
		for j := range m[i] {
			m[i][j] = &ckks.Ciphertext{Value: shared, Scale: params.Scale, Level: level}
		}
	}
	return m
}

func buildMatmulAnalytic(e *env) (instance, error) {
	s := &matmulInstance{rec: e.rec, tracer: e.tracer, devs: map[string]*gpu.Device{}}
	instances := matmul.PaperWorkloads()
	if e.short {
		instances = []matmul.Workload{{M: 4, N: 3, K: 1}, {M: 3, N: 2, K: 2}}
	}
	steps := fhebench.MatMulSteps()
	e.rec.timed("inputs", func() {
		s.params = fhebench.AppParams()
		for _, w := range instances {
			a, b := shapeMatrix(s.params, w.M, w.K), shapeMatrix(s.params, w.K, w.N)
			for _, st := range []fhebench.MatMulStep{steps[0], steps[len(steps)-1]} {
				s.runs = append(s.runs, matmulRun{w: w, cfg: st.Cfg, a: a, b: b})
			}
		}
		for i := range s.runs {
			s.runs[i].name = matmulRuns[i]
		}
	})
	s.order = rand.New(rand.NewSource(e.seed)).Perm(len(s.runs))

	// The warm rep grows the heap to the workload's working set and
	// records what every later run must repeat.
	e.rec.timed("warm", func() {
		for i := range s.runs {
			s.runs[i].ref, _ = s.run(&s.runs[i])
		}
	})
	return s, nil
}

// run is fhebench.RunMatMul with the device kept, so its clocks,
// allocation count and command log can be read afterwards.
func (s *matmulInstance) run(r *matmulRun) (matmulRef, *gpu.Device) {
	dev := gpu.NewDevice(gpu.Device1Spec())
	if s.tracer {
		dev.EnableTrace()
		s.devs[r.name] = dev
	}
	ctx := core.NewContext(s.params, dev, r.cfg)
	matmul.Run(ctx, r.a, r.b, r.w)
	ctx.Wait()
	_, _, allocs := dev.AllocStats()
	hits, misses := ctx.Cache.Stats()
	ref := matmulRef{
		hostCycles: dev.HostTime(), deviceCycles: dev.DeviceTime(),
		driverAllocs: allocs, cacheHits: hits, cacheMisses: misses,
	}
	if s.tracer {
		ref.commands = len(dev.Trace())
	}
	return ref, dev
}

func (s *matmulInstance) sim() float64 { return 0 } // a fresh device per run: no clock spans the instance

func (s *matmulInstance) close() {}

func (s *matmulInstance) writeTrace(dir string) error {
	return writeTraceFile(dir, "matmul_analytic", func(w io.Writer) error { return writeDeviceTraces(w, s.devs) })
}

func (s *matmulInstance) rep() repOut {
	out := repOut{ops: len(s.runs), layer: map[string]float64{}}
	runtime.GC()
	simSecs := make([]float64, len(s.runs))
	devs := make([]*gpu.Device, 0, len(s.runs))
	var hits, misses int64

	m := beginMeasure()
	for _, i := range s.order {
		r := &s.runs[i]
		id := s.rec.begin("matmul.Run " + r.name)
		t0 := time.Now()
		got, dev := s.run(r)
		out.layer["matmul.host_s_per_run."+r.name] = time.Since(t0).Seconds()
		s.rec.end(id)
		simSecs[i] = dev.Seconds(got.hostCycles)
		hits, misses = hits+got.cacheHits, misses+got.cacheMisses
		if got != r.ref {
			out.failed++
			out.broken = append(out.broken, fmt.Sprintf("matMul_%s read %+v, the warm rep %+v: the timing-only mode must repeat exactly", r.name, got, r.ref))
		}
		devs = append(devs, dev)
	}
	m.end(&out)

	for _, t := range simSecs {
		out.sim += t
	}
	out.layer["sim.p50_ms"] = median(simSecs) * 1e3
	out.layer["sim.p99_ms"] = percentile(simSecs, 0.99) * 1e3
	out.layer["memcache.hit_share"] = ratio(float64(hits), float64(hits+misses))
	out.layer["matmul.sim_speedup.100x10x1"] = simSecs[0] / simSecs[1]
	out.layer["matmul.sim_speedup.10x9x8"] = simSecs[2] / simSecs[3]
	if s.tracer {
		var agg traceAgg
		var tileSeconds float64
		for _, dev := range devs {
			agg.addDeviceTrace(dev)
			tileSeconds += float64(dev.Spec.Tiles) * dev.SimulatedSeconds()
		}
		out.traceLayer = agg.metrics(float64(out.ops), tileSeconds)
	}
	return out
}
