package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"

	"xehe"
)

// The two serving workloads drive xehe.Service and xehe.Cluster
// through the surface they share. Load is a closed loop with one
// submitter: the main goroutine submits a rep's jobs back to back and
// Submit's own backpressure (a full pending queue blocks it) is what
// paces it, so the window is the service's PendingCap and a slower
// service receives less load.

// server is the part of Service and Cluster the benchmark calls.
type server interface {
	Submit(*xehe.Job) (*xehe.Pending, error)
	Wait()
	Close()
	Metrics() xehe.Metrics
	WriteTrace(io.Writer) error
	TraceCounts() (recorded, dropped int64)
	SimulatedSeconds() float64
	ResetSimClocks()
}

// inputPairs is how many distinct (a, b) input pairs a serving
// workload draws from the seed; every job uses one of them, so the
// serial oracle is computed once per pair and chain.
const inputPairs = 4

// traceSpanCap sizes the program's span rings for the traced reps so
// that none is dropped (obs.spans_dropped reads 0 unless that breaks).
const traceSpanCap = 1 << 16

// interactiveDeadline is the Interactive jobs' deadline in simulated
// seconds, the one `xehe-bench -mixed` uses.
const interactiveDeadline = 0.010

// graphDepth is the length of a Batch chain in serve_mixed_graph: a
// MulRelinRescale+Rotate head and graphDepth-1 rotate-add rounds.
const graphDepth = 4

// unit kinds of a serving plan.
const (
	unitSingle = iota // one MulRelinRescale+Rotate job
	unitChain         // a graphDepth chain linked by InputFrom; only the tail is downloaded
)

// unit is one generated piece of load.
type unit struct {
	kind     int
	class    xehe.JobClass
	deadline float64
	pair     int
}

// jobs is how many jobs the unit submits.
func (u unit) jobs() int {
	if u.kind == unitChain {
		return graphDepth
	}
	return 1
}

// serveInstance is a constructed serving workload.
type serveInstance struct {
	name    string
	rec     *recorder
	srv     server
	stats   func() xehe.ServiceStats
	workers int // worker goroutines over all shards
	tiles   int // device tiles over all shards
	tracer  bool

	cts    [inputPairs][2]*xehe.Ciphertext
	single [inputPairs]*xehe.Ciphertext // serial result of the single job per pair
	chain  [inputPairs]*xehe.Ciphertext // serial result of the chain's tail per pair
	plan   []unit
	before traceAgg // the program's trace totals before the current rep
}

func singleJob(in [2]*xehe.Ciphertext) *xehe.Job {
	job := xehe.NewJob(in[0], in[1])
	r := job.MulRelinRescale(0, 1)
	job.Rotate(r, 1)
	return job
}

func roundJob(prev *xehe.Pending) *xehe.Job {
	job := xehe.NewJob()
	v := job.InputFrom(prev)
	r := job.Rotate(v, 1)
	job.Add(v, r)
	return job
}

// newServeInstance generates keys, inputs and oracle results from the
// seed, leaving srv, stats, workers, tiles and plan to the caller.
func newServeInstance(e *env, name string, withChains bool) (*serveInstance, *xehe.Parameters, *xehe.KeyKit, error) {
	s := &serveInstance{name: name, rec: e.rec, tracer: e.tracer}
	rng := rand.New(rand.NewSource(e.seed))
	var params *xehe.Parameters
	var kit *xehe.KeyKit
	e.rec.timed("ckks.params", func() { params = xehe.NewParameters(xehe.ParamsDemo()) })
	e.rec.timed("ckks.keygen", func() { kit = xehe.GenerateKeys(params, e.seed, 1) })

	var vals [inputPairs][2][]complex128
	e.rec.timed("ckks.encrypt", func() {
		for p := range s.cts {
			for i := range s.cts[p] {
				vals[p][i] = randVec(rng, params.Slots())
				s.cts[p][i] = kit.Encrypt(vals[p][i])
			}
		}
	})

	// The oracle: the same chains on the serial evaluator, checked once
	// against the plaintext model. Every served result must then be
	// bit-identical to its oracle, which carries the decrypt check over
	// to every job without decrypting each.
	var err error
	e.rec.timed("oracle", func() {
		he := xehe.NewGPUEvaluator(params, kit, xehe.Device1, xehe.ConfigOptimized())
		for p := range s.cts {
			model := make([]complex128, params.Slots())
			for i := range model {
				model[i] = vals[p][0][i] * vals[p][1][i]
			}
			model = rotate1(model)
			s.single[p] = he.Rotate(he.MulRelinRescale(s.cts[p][0], s.cts[p][1]), 1)
			if err = checkModel(kit, s.single[p], model, name+" single-job oracle"); err != nil {
				return
			}
			if !withChains {
				continue
			}
			x := s.single[p]
			for round := 1; round < graphDepth; round++ {
				x = he.Add(x, he.Rotate(x, 1))
				rot := rotate1(model)
				for i := range model {
					model[i] += rot[i]
				}
			}
			s.chain[p] = x
			if err = checkModel(kit, x, model, name+" chain oracle"); err != nil {
				return
			}
		}
	})
	return s, params, kit, err
}

// finish stores the plan and runs the unmeasured warm rep, a quarter
// of a measured one: enough to fill the buffer cache and the staging
// pool and to fault in the code paths.
func (s *serveInstance) finish(plan []unit) error {
	s.plan = plan
	var out repOut
	s.rec.timed("warm", func() { out = s.run(plan[:(len(plan)+3)/4]) })
	if out.failed > 0 || len(out.broken) > 0 {
		return fmt.Errorf("warm rep: %d of %d jobs failed %v", out.failed, out.ops, out.broken)
	}
	return nil
}

func (s *serveInstance) sim() float64 { return s.srv.SimulatedSeconds() }
func (s *serveInstance) close()       { s.srv.Close() }

func (s *serveInstance) writeTrace(dir string) error {
	return writeTraceFile(dir, s.name, s.srv.WriteTrace)
}

// traceTotals parses the program's trace as it stands.
func (s *serveInstance) traceTotals() (traceAgg, error) {
	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(s.srv.WriteTrace(pw)) }()
	return parseChromeTrace(pr)
}

func counter(m xehe.Metrics, name string) float64 {
	in, _ := m.Get(name)
	return in.Value
}

func classOf(st xehe.ServiceStats, c xehe.JobClass) xehe.ClassStats {
	if int(c) < len(st.PerClass) {
		return st.PerClass[c]
	}
	return xehe.ClassStats{}
}

// checked is a future whose result the rep compares with an oracle.
type checked struct {
	fut  *xehe.Pending
	want *xehe.Ciphertext
}

func (s *serveInstance) rep() repOut { return s.run(s.plan) }

// run submits the units of plan, waits for them and checks them.
func (s *serveInstance) run(plan []unit) repOut {
	out := repOut{layer: map[string]float64{}}
	for _, u := range plan {
		out.ops += u.jobs()
	}
	runtime.GC()
	s.srv.ResetSimClocks()
	if s.tracer {
		var err error
		if s.before, err = s.traceTotals(); err != nil {
			out.broken = append(out.broken, "parsing the program's trace: "+err.Error())
		}
	}
	st0, m0 := s.stats(), s.srv.Metrics()
	results := make([]checked, 0, len(plan))
	shed := 0
	var submitUS []float64

	submit := func(job *xehe.Job) *xehe.Pending {
		var fut *xehe.Pending
		var err error
		if s.tracer {
			secs := s.rec.timed("sched.Submit", func() { fut, err = s.srv.Submit(job) })
			submitUS = append(submitUS, secs*1e6)
		} else {
			fut, err = s.srv.Submit(job)
		}
		switch {
		case err == nil:
		case errors.Is(err, xehe.ErrOverloaded):
			shed++
		default:
			out.failed++
			out.broken = append(out.broken, "Submit: "+err.Error())
		}
		return fut
	}

	m := beginMeasure()
	loop := s.rec.begin("submit-loop")
	for _, u := range plan {
		job := singleJob(s.cts[u.pair]).WithClass(u.class).WithDeadline(u.deadline)
		fut := submit(job)
		want := s.single[u.pair]
		if u.kind == unitChain {
			want = s.chain[u.pair]
			for round := 1; round < graphDepth && fut != nil; round++ {
				fut = submit(roundJob(fut).WithClass(u.class))
			}
		}
		if fut != nil {
			results = append(results, checked{fut, want})
		}
	}
	s.rec.end(loop)
	s.rec.timed("Wait", s.srv.Wait)
	m.end(&out)
	out.sim = s.srv.SimulatedSeconds()

	st1, m1 := s.stats(), s.srv.Metrics()
	s.rec.timed("verify", func() {
		for _, c := range results {
			// An error here is a failed job and is already in Stats.Failed.
			if ct, err := c.fut.Wait(); err == nil && !bitEqual(ct, c.want) {
				out.failed++
			}
		}
	})
	out.failed += shed + int(st1.Failed-st0.Failed)

	ops := float64(out.ops)
	d := func(a, b int64) float64 { return float64(a - b) }
	dm := func(name string) float64 { return counter(m1, name) - counter(m0, name) }
	l := out.layer
	l["sched.worker_idle_wall_share"] = ratio(dm("worker.idle_empty_wall_ns"), float64(s.workers)*out.wall*1e9)
	l["sched.batch_mean_jobs"] = ratio(d(st1.Jobs, st0.Jobs), d(st1.Batches, st0.Batches))
	fused, unfused := d(st1.FusedSteps, st0.FusedSteps), d(st1.UnfusedSteps, st0.UnfusedSteps)
	l["sched.fused_step_share"] = ratio(fused, fused+unfused)
	l["sched.stall_copy_sim_ms"] = dm("worker.stall_copy_sim_ns") / 1e6
	l["sched.dep_park_sim_ms"] = ratio(dm("sched.dep_park_sim_ns")/1e6, d(st1.GraphJobs, st0.GraphJobs))
	hits, misses := d(st1.ResidentHits, st0.ResidentHits), d(st1.ResidentMisses, st0.ResidentMisses)
	l["sched.resident_hit_share"] = ratio(hits, hits+misses)
	l["sched.stolen_jobs"] = d(st1.StolenIn, st0.StolenIn)

	// ResetSimClocks empties the latency windows, so the quantiles in
	// st1 are this rep's alone.
	inter, batch, back := classOf(st1, xehe.Interactive), classOf(st1, xehe.Batch), classOf(st1, xehe.Background)
	inter0 := classOf(st0, xehe.Interactive)
	l["sim.p50_ms"] = batch.P50 * 1e3
	l["sim.p99_ms"] = batch.P99 * 1e3
	l["sim.interactive_p50_ms"] = inter.P50 * 1e3
	l["qos.interactive_p99_sim_ms"] = inter.P99 * 1e3
	l["qos.batch_p50_sim_ms"] = batch.P50 * 1e3
	l["qos.background_p50_sim_ms"] = back.P50 * 1e3
	hit, miss := d(inter.DeadlineHit, inter0.DeadlineHit), d(inter.DeadlineMiss, inter0.DeadlineMiss)
	l["qos.deadline_hit_share"] = ratio(hit, hit+miss)
	l["qos.shed_share"] = ratio(float64(shed), ops)

	l["sycl.h2d_mb_per_op"] = d(st1.BytesH2D, st0.BytesH2D) / 1e6 / ops
	l["sycl.d2h_mb_per_op"] = d(st1.BytesD2H, st0.BytesD2H) / 1e6 / ops
	l["sycl.transfer_batches_per_op"] = d(st1.TransferBatches, st0.TransferBatches) / ops
	ch, cm := d(st1.CacheHits, st0.CacheHits), d(st1.CacheMisses, st0.CacheMisses)
	l["memcache.hit_share"] = ratio(ch, ch+cm)
	pinned := counter(m1, "memcache.pinned_buffers")
	l["memcache.pinned_after_drain"] = pinned
	if pinned != 0 {
		out.broken = append(out.broken, fmt.Sprintf("%v buffers still pinned after Wait", pinned))
	}

	if s.tracer {
		after, err := s.traceTotals()
		if err != nil {
			out.broken = append(out.broken, "parsing the program's trace: "+err.Error())
		}
		out.traceLayer = after.sub(s.before).metrics(ops, float64(s.tiles)*out.sim)
		out.traceLayer["sched.submit_host_us"] = median(submitUS)
		rec, dropped := s.srv.TraceCounts()
		out.traceLayer["obs.spans_recorded"] = float64(rec)
		out.traceLayer["obs.spans_dropped"] = float64(dropped)
	}
	return out
}

func traceConfig(on bool) xehe.TraceConfig {
	if !on {
		return xehe.TraceConfig{}
	}
	return xehe.TraceConfig{Enabled: xehe.ToggleOn, SpanCap: traceSpanCap}
}

// buildServeStream is ROADMAP's standard stream: uniform Batch jobs on
// one Device1 with the default configuration.
func buildServeStream(e *env) (instance, error) {
	s, params, kit, err := newServeInstance(e, "serve_stream", false)
	if err != nil {
		return nil, err
	}
	jobs := 250
	if e.short {
		jobs = 16
	}
	rng := rand.New(rand.NewSource(e.seed ^ 0x5eed))
	plan := make([]unit, jobs)
	for i := range plan {
		plan[i] = unit{kind: unitSingle, class: xehe.Batch, pair: rng.Intn(inputPairs)}
	}
	e.rec.timed("NewService", func() {
		svc := xehe.NewService(params, kit, xehe.Device1, xehe.ServiceConfig{WarmBuffers: 32, Trace: traceConfig(e.tracer)})
		s.srv, s.stats = svc, svc.Stats
	})
	s.workers, s.tiles = 2, 2 // Device1: two tiles, one worker each by default
	if err := s.finish(plan); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// buildServeMixedGraph mixes the three QoS classes and job graphs on a
// cluster of two single-tile devices.
func buildServeMixedGraph(e *env) (instance, error) {
	s, params, kit, err := newServeInstance(e, "serve_mixed_graph", true)
	if err != nil {
		return nil, err
	}
	slots := 50
	if e.short {
		slots = 6
	}
	// Per slot: one Interactive single with a deadline, every second
	// slot one Background single, and one Batch chain. The seed picks
	// the order inside the slot and each unit's inputs.
	rng := rand.New(rand.NewSource(e.seed ^ 0x5eed))
	var plan []unit
	for slot := 0; slot < slots; slot++ {
		units := []unit{
			{kind: unitSingle, class: xehe.Interactive, deadline: interactiveDeadline},
			{kind: unitChain, class: xehe.Batch},
		}
		if slot%2 == 1 {
			units = append(units, unit{kind: unitSingle, class: xehe.Background})
		}
		rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
		for _, u := range units {
			u.pair = rng.Intn(inputPairs)
			plan = append(plan, u)
		}
	}
	e.rec.timed("NewCluster", func() {
		cl := xehe.NewCluster(params, kit, []xehe.DeviceKind{xehe.Device2, xehe.Device2}, xehe.ClusterConfig{
			QueueDepth: 2, MaxBatch: 4, PendingCap: 512, WarmBuffers: 32, Trace: traceConfig(e.tracer),
		})
		s.srv, s.stats = cl, func() xehe.ServiceStats { return cl.Stats().Stats }
	})
	s.workers, s.tiles = 2, 2 // two Device2 shards: one tile and one worker each
	if err := s.finish(plan); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}
