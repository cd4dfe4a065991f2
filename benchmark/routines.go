package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"xehe"
	"xehe/internal/gpu"
)

// eval_routines calls the paper's §IV-C routines one at a time on the
// serial evaluator: no scheduler, no QoS, no batching on the path.

// evalDevice is one evaluator of the workload and its oracle results.
type evalDevice struct {
	name   string
	he     *xehe.GPUEvaluator
	oracle []*xehe.Ciphertext // per routine, checked against the model during set-up
}

type evalInstance struct {
	rec    *recorder
	tracer bool
	cta    *xehe.Ciphertext
	ctb    *xehe.Ciphertext
	devs   []*evalDevice
	simRef []float64 // per (device, routine) simulated seconds of the first measured rep: every later one must repeat them exactly
}

// call runs routine r of the round on he.
func (s *evalInstance) call(he *xehe.GPUEvaluator, r int) *xehe.Ciphertext {
	switch routines[r] {
	case "add":
		return he.Add(s.cta, s.ctb)
	case "mul_relin":
		return he.MulRelin(s.cta, s.ctb)
	case "mul_relin_rescale":
		return he.MulRelinRescale(s.cta, s.ctb)
	case "square_relin_rescale":
		return he.SquareRelinRescale(s.cta)
	default:
		return he.Rotate(s.cta, 1)
	}
}

func buildEvalRoutines(e *env) (instance, error) {
	s := &evalInstance{rec: e.rec, tracer: e.tracer}
	spec := xehe.ParamsBenchmark()
	if e.short {
		spec = xehe.ParamsDemo()
	}
	rng := rand.New(rand.NewSource(e.seed))
	var params *xehe.Parameters
	var kit *xehe.KeyKit
	e.rec.timed("ckks.params", func() { params = xehe.NewParameters(spec) })
	e.rec.timed("ckks.keygen", func() { kit = xehe.GenerateKeys(params, e.seed, 1) })
	a, b := randVec(rng, params.Slots()), randVec(rng, params.Slots())
	e.rec.timed("ckks.encrypt", func() { s.cta, s.ctb = kit.Encrypt(a), kit.Encrypt(b) })

	model := make([][]complex128, len(routines))
	for r := range model {
		model[r] = make([]complex128, len(a))
	}
	for i := range a {
		model[0][i] = a[i] + b[i]
		model[1][i] = a[i] * b[i]
		model[2][i] = a[i] * b[i]
		model[3][i] = a[i] * a[i]
	}
	model[4] = rotate1(a)

	e.rec.timed("NewGPUEvaluator", func() {
		for _, d := range []struct {
			name string
			kind xehe.DeviceKind
		}{{"device1", xehe.Device1}, {"device2", xehe.Device2}} {
			s.devs = append(s.devs, &evalDevice{name: d.name, he: xehe.NewGPUEvaluator(params, kit, d.kind, xehe.ConfigOptimized())})
		}
	})

	// The warm round doubles as the oracle: each routine's result is
	// decrypted against the plaintext model here, and every measured
	// call must then return the same bits.
	var err error
	e.rec.timed("warm", func() {
		for _, d := range s.devs {
			for r := range routines {
				ct := s.call(d.he, r)
				d.oracle = append(d.oracle, ct)
				if err = checkModel(kit, ct, model[r], d.name+" "+routines[r]); err != nil {
					return
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *evalInstance) sim() float64 {
	var t float64
	for _, d := range s.devs {
		t += d.he.SimulatedSeconds()
	}
	return t
}

func (s *evalInstance) close() {}

func (s *evalInstance) writeTrace(dir string) error {
	devs := map[string]*gpu.Device{}
	for _, d := range s.devs {
		devs[d.name] = d.he.Context().Device
	}
	return writeTraceFile(dir, "eval_routines", func(w io.Writer) error { return writeDeviceTraces(w, devs) })
}

func (s *evalInstance) rep() repOut {
	out := repOut{layer: map[string]float64{}}
	runtime.GC()
	var hits0, misses0 int64
	for _, d := range s.devs {
		dev := d.he.Context().Device
		dev.ResetClocks()
		if s.tracer {
			dev.EnableTrace() // also empties the log, so it holds this rep alone
		}
		h, m := d.he.Context().Cache.Stats()
		hits0, misses0 = hits0+h, misses0+m
	}

	results := make([]*xehe.Ciphertext, 0, len(s.devs)*len(routines))
	var lat []float64
	m := beginMeasure()
	for di, d := range s.devs {
		for r, name := range routines {
			id := s.rec.begin("core." + name)
			sim0, t0 := d.he.SimulatedSeconds(), time.Now()
			ct := s.call(d.he, r)
			wall, sim := time.Since(t0).Seconds(), d.he.SimulatedSeconds()-sim0
			s.rec.end(id)
			results = append(results, ct)
			lat = append(lat, sim)
			if di == 0 {
				out.layer["core.host_ms_per_call."+name] = wall * 1e3
				out.layer["core.sim_us_per_call."+name] = sim * 1e6
			}
		}
	}
	m.end(&out)
	out.ops = len(results)
	out.sim = s.sim()

	if s.simRef == nil {
		// The warm round paid the cold driver allocations; from here on
		// the simulated time of a call depends on nothing but the model.
		s.simRef = lat
	}
	var tileSeconds float64
	var hits1, misses1 int64
	var agg traceAgg
	for di, d := range s.devs {
		for r := range routines {
			i := di*len(routines) + r
			if !bitEqual(results[i], d.oracle[r]) {
				out.failed++
			}
			if lat[i] != s.simRef[i] {
				out.broken = append(out.broken, fmt.Sprintf("%s %s took %v simulated s, in the first rep %v: the serial path must repeat exactly", d.name, routines[r], lat[i], s.simRef[i]))
			}
		}
		dev := d.he.Context().Device
		tileSeconds += float64(dev.Spec.Tiles) * d.he.SimulatedSeconds()
		h, m := d.he.Context().Cache.Stats()
		hits1, misses1 = hits1+h, misses1+m
		if s.tracer {
			agg.addDeviceTrace(dev)
		}
	}
	out.layer["sim.p50_ms"] = median(lat) * 1e3
	out.layer["sim.p99_ms"] = percentile(lat, 0.99) * 1e3
	out.layer["memcache.hit_share"] = ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0))
	if s.tracer {
		out.traceLayer = agg.metrics(float64(out.ops), tileSeconds)
	}
	return out
}
