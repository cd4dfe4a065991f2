package sched

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xehe/internal/ckks"
	"xehe/internal/gpu"
	"xehe/internal/qos"
)

// The scenario rows. Every differential run of the scheduler and the
// cluster is a scenario row and runScenario is its one runner: it
// builds the row's cluster through newClusterWith (a row about one
// scheduler is a one-shard cluster), submits the workload as the row
// says, fires the
// row's faults, drains, and compares every output with the serial
// core.Context oracle, computed while the scheduler runs
// (SameCiphertext; a job the oracle fails must fail with the oracle's
// error), and with the plaintext model (MaxSlotError). The helper's
// teardown then reconciles the counters (checkInvariants), and the
// row's check asserts what only that row does. A new concurrent path is
// a new row, not a new test file.
//
// Each Test… at the bottom of this file passes its rows to
// runScenarios, so a row runs under its entry point's test ID (a named
// row as its subtest) and no row exists without running. A row whose
// faults kill, degrade or retire a shard runs under a name that make
// stress's pattern (Chaos|SelfHeal|Kill|Drain|Retry|AddShard|Lifecycle)
// selects.
type scenario struct {
	name    string      // the subtest; "" runs the row in its entry point itself
	shards  []ShardSpec // a cluster over these; nil: one Device1 shard
	workers int
	cfg     func(*Config) // edits on schedConfig(workers)
	broken  bool          // keys from brokenKeys
	work    workload
	mode    submitMode
	racers  int // > 1: goroutine g submits units g, g+racers, ...
	// faults[i] fires before unit i is submitted: fault-plane calls,
	// retirements, drains between waves. faults[0] runs on the test
	// goroutine before anything is submitted; the others run on a
	// submitter goroutine, so they report with t.Errorf, never t.Fatalf.
	faults map[int]func(t *testing.T, r *run)
	check  func(t *testing.T, r *run)
}

// workload is what a row submits, drawn from one seed: n RandomCase jobs
// of up to maxOps ops (each under RandomQoS when qos), then famReps
// fresh members of each family in fams, family by family; each such
// case is submitted reps times (replicas share a shape key and
// coalesce). With nodes > 0 the n units are RandomGraph DAGs of that
// many jobs.
type workload struct {
	seed            int64
	n, maxOps, reps int
	qos             bool
	fams            []func(*Job)
	famReps, nodes  int
}

type submitMode int

const (
	burst  submitMode = iota // in order, as fast as Submit returns
	held                     // in order behind holdFirstBatch: shard 0's worker i parks on unit i until every unit is queued
	pinned                   // in order onto shard 0's scheduler, past the router
)

// fusionFamilies covers every op code with a deterministic chain; the
// members of one family share a shape key, so they may coalesce.
var fusionFamilies = []func(j *Job){
	func(j *Job) { j.Add(0, 1) },
	func(j *Job) { j.MulRelin(0, 1) },
	func(j *Job) { r := j.MulRelinRescale(0, 1); j.Rotate(r, 1) },
	func(j *Job) { j.SquareRelinRescale(0) },
	func(j *Job) { r := j.Rotate(0, 2); j.Add(r, r) },
	func(j *Job) { r := j.ModSwitch(0); j.SquareRelinRescale(r) },
	func(j *Job) { r := j.Rotate(0, -1); j.MulRelinRescale(r, r) },
}

// transferFamilies adds DAG shapes that re-reference an input after
// intermediates were appended to the value list — what breaks if the
// gathered upload's per-job input slices alias (an append would clobber
// the next job's inputs).
var transferFamilies = append([]func(j *Job){
	func(j *Job) { r := j.Rotate(0, 1); j.Add(r, 1) },
	func(j *Job) { j.Add(0, 1); r := j.Add(0, 0); j.Add(r, 1) },
}, fusionFamilies...)

var square = fusionFamilies[3]

// brokenRotation is the rotation brokenKeys breaks: its Galois key is
// present, so Submit accepts the job, and empty, so the key switch
// panics in-kernel.
const brokenRotation = 5

// brokenKeys returns h with a broken key for brokenRotation; the serial
// oracle built on it fails exactly the jobs the scheduler must fail.
func brokenKeys(h *Harness) *Harness {
	b := *h
	b.gks = map[int]*ckks.GaloisKey{brokenRotation: {}}
	for k, v := range h.gks {
		b.gks[k] = v
	}
	return &b
}

// familyCase builds one family member over two fresh random inputs,
// with the plaintext model of its chain (build may lower an input's
// level: the model reads each input's level and scale after it).
func familyCase(h *Harness, rng *rand.Rand, build func(*Job)) *Case {
	slots := h.Params.Slots()
	j := NewJob()
	var vals []genValue
	for i := 0; i < 2; i++ {
		pt := make([]complex128, slots)
		for k := range pt {
			pt[k] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
		j.Inputs = append(j.Inputs, h.Encrypt(pt))
		vals = append(vals, genValue{pt: pt})
	}
	build(j)
	for i, in := range j.Inputs {
		vals[i].meta = valueMeta{level: in.Level, scale: in.Scale}
	}
	for _, op := range j.Ops {
		vals = append(vals, applyModel(h.Params, vals, op, slots))
	}
	return &Case{Job: j, Expected: vals[len(vals)-1].pt}
}

// lowerLevel derives a valid level-(L-1) ciphertext by dropping the
// last RNS component of every polynomial (a host-side modulus switch:
// the remaining residues represent the same value).
func lowerLevel(ct *ckks.Ciphertext) *ckks.Ciphertext {
	out := &ckks.Ciphertext{Scale: ct.Scale, Level: ct.Level - 1}
	for _, pv := range ct.Value {
		c := pv.Clone()
		c.DropLast()
		out.Value = append(out.Value, c)
	}
	return out
}

// decode decrypts ct after dropping the RNS components its plaintext
// does not need: a slot below 2^7 at ct's scale still fits, so the same
// slots decrypt (one that does not fit fails the model check), and
// composing residues is most of what decrypting costs.
func decode(h *Harness, ct *ckks.Ciphertext) []complex128 {
	moduli := h.Params.Basis.Moduli
	level, bits := 0, math.Log2(float64(moduli[0].Value))
	for level < ct.Level && bits < math.Log2(ct.Scale)+9 {
		level++
		bits += math.Log2(float64(moduli[level].Value))
	}
	for ct.Level > level {
		ct = lowerLevel(ct)
	}
	return h.Decrypt(ct)
}

// unit is one submission: a case, or a graph submitted node by node.
type unit struct {
	c    *Case
	g    *GraphCase
	fut  *Future
	futs []*Future
}

func (w workload) units(h *Harness) []*unit {
	rng := rand.New(rand.NewSource(w.seed))
	var cases []*Case
	var us []*unit
	for i := 0; i < w.n; i++ {
		if w.nodes > 0 {
			us = append(us, &unit{g: h.RandomGraph(rng, w.nodes, w.maxOps)})
			continue
		}
		c := h.RandomCase(rng, w.maxOps)
		if w.qos {
			h.RandomQoS(rng, c.Job)
		}
		cases = append(cases, c)
	}
	for _, fam := range w.fams {
		for r := 0; r < w.famReps; r++ {
			cases = append(cases, familyCase(h, rng, fam))
		}
	}
	for _, c := range cases {
		for r := 0; r < max(w.reps, 1); r++ {
			us = append(us, &unit{c: c})
		}
	}
	return us
}

// run is a row in progress: its cluster and its units.
type run struct {
	c     *Cluster
	units []*unit
}

// links sums the link counters of every shard.
func (r *run) links() (ls gpu.LinkStats) {
	for _, sh := range r.c.all() {
		l := sh.Device().LinkStats()
		ls.Hops += l.Hops
		ls.HopCycles += l.HopCycles
		ls.Delayed += l.Delayed
		ls.Dropped += l.Dropped
		ls.Faulted += l.Faulted
	}
	return ls
}

// edges counts the dependency edges of the row's graphs.
func (r *run) edges() int64 {
	var n int64
	for _, u := range r.units {
		for _, node := range u.g.Nodes {
			n += int64(len(node.DepNodes))
		}
	}
	return n
}

// runScenarios runs rows: an unnamed row in t itself, a named one as
// its subtest.
func runScenarios(t *testing.T, rows ...scenario) {
	for _, sc := range rows {
		if sc.name == "" {
			runScenario(t, sc)
		} else {
			t.Run(sc.name, func(t *testing.T) { runScenario(t, sc) })
		}
	}
}

func runScenario(t *testing.T, sc scenario) {
	h := sharedHarness(t)
	if sc.broken {
		h = brokenKeys(h)
	}
	cfg := schedConfig(sc.workers)
	if sc.cfg != nil {
		sc.cfg(&cfg)
	}
	if sc.shards == nil {
		sc.shards = shards(d1)
	}
	r := &run{units: sc.work.units(h), c: newClusterWith(t, h, sc.shards, cfg)}
	submit := r.c.Submit
	if sc.mode == pinned {
		submit = r.c.all()[0].Submit
	}
	// The oracle runs while the scheduler does, as a pipeline: one
	// goroutine runs the serial context, the next decrypts its outputs
	// for the plaintext model. Until done closes they are the only users
	// of the harness's serial context and decoder.
	type verdict struct {
		want     *ckks.Ciphertext
		err      error
		expected []complex128
		slotErr  float64
	}
	oracle, graphs := map[*Job]*verdict{}, map[*GraphCase][]*ckks.Ciphertext{}
	decoding, done := make(chan *verdict, len(r.units)), make(chan struct{})
	defer func() { <-done }() // a row that fails early leaves no oracle running
	go func() {
		defer close(decoding)
		for _, u := range r.units {
			if u.g != nil {
				graphs[u.g], _ = h.RunGraphSerial(u.g)
			} else if oracle[u.c.Job] == nil {
				v := &verdict{expected: u.c.Expected}
				if v.want, v.err = h.RunSerial(u.c.Job); v.err == nil {
					decoding <- v
				}
				oracle[u.c.Job] = v
			}
		}
	}()
	go func() {
		defer close(done)
		for v := range decoding {
			v.slotErr = MaxSlotError(decode(h, v.want), v.expected)
		}
	}()
	// one submits unit i, after the fault keyed on it; false stops its
	// submitter.
	one := func(i int) bool {
		if f := sc.faults[i]; f != nil && i > 0 {
			f(t, r)
		}
		u := r.units[i]
		if u.g != nil {
			u.futs = submitGraph(t, submit, u.g)
			return u.futs != nil
		}
		var err error
		if u.fut, err = submit(u.c.Job); err != nil {
			t.Errorf("unit %d: submit: %v", i, err)
			return false
		}
		return true
	}
	if f := sc.faults[0]; f != nil {
		f(t, r)
	}
	first, release := 0, func() {}
	if sc.mode == held {
		// One unit per worker goes in from this goroutine, each after the
		// previous one's worker has parked on it; the deferred release
		// frees them even when the row fails first, so the teardown's
		// Drain cannot hang.
		s0 := r.c.all()[0]
		var parked <-chan struct{}
		parked, release = holdFirstBatch(s0)
		defer release()
		for ; first < len(s0.workers); first++ {
			if !one(first) {
				t.FailNow()
			}
			mustFinish(t, "parking a held worker", func() { <-parked })
		}
	}
	racers := max(sc.racers, 1)
	var wg sync.WaitGroup
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := first + g; i < len(r.units); i += racers {
				if !one(i) {
					return
				}
			}
		}()
	}
	mustFinish(t, "submission", wg.Wait)
	release()
	if t.Failed() {
		t.FailNow()
	}
	mustFinish(t, "Drain", r.c.Drain)
	mustFinish(t, "the serial oracle", func() { <-done })

	jobs, failed := 0, 0
	for i, u := range r.units {
		if u.g != nil {
			if graphs[u.g] == nil {
				t.Fatalf("graph %d: the serial reference failed", i)
			}
			checkGraph(t, h, u.g, u.futs, graphs[u.g])
			jobs += len(u.g.Nodes)
			continue
		}
		jobs++
		v := oracle[u.c.Job]
		select {
		case <-u.fut.Done():
		default:
			t.Fatalf("job %d not done after Drain", i)
		}
		got, err := u.fut.Wait()
		switch {
		case v.err != nil:
			failed++
			if err == nil || !strings.Contains(err.Error(), v.err.Error()) {
				t.Fatalf("job %d: error %v, want the serial oracle's %q", i, err, v.err)
			}
		case err != nil:
			t.Fatalf("job %d: %v (ops %v)", i, err, u.c.Job.Ops)
		case SameCiphertext(got, v.want) != nil:
			t.Fatalf("job %d: scheduled vs serial mismatch: %v (ops %v)", i, SameCiphertext(got, v.want), u.c.Job.Ops)
		case v.slotErr > differentialEps:
			t.Fatalf("job %d: slot error %g > %g (ops %v)", i, v.slotErr, differentialEps, u.c.Job.Ops)
		}
	}
	if st := r.c.Stats(); st.Jobs != int64(jobs) || st.Failed != int64(failed) {
		t.Fatalf("stats = %d jobs / %d failed, want %d/%d", st.Jobs, st.Failed, jobs, failed)
	}
	if sc.check != nil {
		sc.check(t, r)
	}
}

// chaos is the fault rows' cluster config: every class blocks when its
// queue is full (Share 1) rather than shedding — with two of three
// shards killed, the default Interactive slice (Share 0.5: 8 jobs on
// one shard at MaxBatch 1) loses a race against three submitters now
// and then, and these rows are about replay.
func chaos(maxBatch int) func(*Config) {
	return func(cfg *Config) {
		cfg.MaxBatch = maxBatch
		cfg.Classes = qos.DefaultClasses()
		for i := range cfg.Classes {
			cfg.Classes[i].Share = 1
		}
	}
}

func maxBatch(n int) func(*Config) { return func(cfg *Config) { cfg.MaxBatch = n } }

func selfHeal(standbys int) func(*Config) {
	return func(cfg *Config) { cfg.SelfHeal, cfg.Standbys = true, standbys }
}

func drainWave(t *testing.T, r *run) { r.c.Drain() }

func expect(t *testing.T, ok bool, format string, args ...any) {
	t.Helper()
	if !ok {
		t.Fatalf(format, args...)
	}
}

func checkCoalesced(t *testing.T, r *run) {
	st := r.c.Stats()
	expect(t, st.Coalesced > 0 && st.MaxBatch >= 2, "no coalescing behind a held worker: %d coalesced, max batch %d", st.Coalesced, st.MaxBatch)
}

// checkBatches pins the row's (batches, max batch, coalesced).
func checkBatches(t *testing.T, r *run, batches int64, maxBatch int, coalesced int64) {
	st := r.c.Stats()
	expect(t, st.Batches == batches && st.MaxBatch == maxBatch && st.Coalesced == coalesced,
		"(batches, max batch, coalesced) = (%d, %d, %d), want (%d, %d, %d)", st.Batches, st.MaxBatch, st.Coalesced, batches, maxBatch, coalesced)
}

func checkTransfers(t *testing.T, r *run) {
	st := r.c.Stats()
	expect(t, st.TransferBatches > 0 && st.BytesH2D > 0 && st.BytesD2H > 0, "no gathered transfers: %d batches, %d/%d bytes",
		st.TransferBatches, st.BytesH2D, st.BytesD2H)
}

func checkEdges(t *testing.T, r *run) {
	st := r.c.Stats()
	expect(t, st.ResidentHits+st.ResidentMisses == r.edges(), "resolved edges = %d, want %d", st.ResidentHits+st.ResidentMisses, r.edges())
}

// qosRows is base under each named policy, its seed scaled by the
// name's length.
func qosRows(base scenario, names ...string) []scenario {
	factories := map[string]qos.Factory{"wfq": qos.WFQ, "priority": qos.StrictPriority, "edf": qos.EDF}
	rows := make([]scenario, len(names))
	for i, name := range names {
		rows[i] = base
		rows[i].name, rows[i].cfg = name, func(cfg *Config) { cfg.Policy = factories[name] }
		rows[i].work.seed *= int64(len(name))
	}
	return rows
}

// chaosRow kills shards mid-run — shard 0 from its own worker when its
// second batch starts, shard 1 by the fault plane mid-stream — and adds
// a replacement on a new node: a healthy shard always exists, so
// surrendered work replays instead of failing.
func chaosRow(name string, mb int) scenario {
	return scenario{name: name, shards: chaosTrio, workers: 2, cfg: chaos(mb),
		work: workload{seed: int64(7001 + mb), n: 24, maxOps: 5}, racers: 3,
		faults: map[int]func(*testing.T, *run){
			0: func(t *testing.T, r *run) { r.c.Faults().KillShardAfter(0, 2) },
			12: func(t *testing.T, r *run) {
				r.c.Faults().KillShard(1)
				if _, err := r.c.AddShard(ShardSpec{Device: d1, Node: 3}); err != nil {
					t.Errorf("AddShard: %v", err)
				}
			},
		},
		check: func(t *testing.T, r *run) {
			st, f := r.c.Stats(), r.c.Faults()
			expect(t, st.Killed >= 1 && st.Added == 1, "Killed = %d, Added = %d, want >= 1 and 1", st.Killed, st.Added)
			expect(t, f.Health(1) == "killed" && f.Health(r.c.Shards()-1) == "ok",
				"health of the killed shard and the replacement = %q, %q, want killed, ok", f.Health(1), f.Health(r.c.Shards()-1))
		}}
}

var (
	d1, d2      = gpu.Device1Spec(), gpu.Device2Spec()
	heteroPair  = shards(d1, d2)
	chaosTrio   = shards(d1, d1, d2)
	remoteLink  = NetLink{LatencySeconds: 3e-6, GBps: 8}
	remotePair  = []ShardSpec{{Device: d1, Node: 0, Link: remoteLink}, {Device: d1, Node: 1, Link: remoteLink}}
	mixedLevels = []func(*Job){square, func(j *Job) { j.Inputs[0] = lowerLevel(j.Inputs[0]); j.SquareRelinRescale(0) }}
	brokenPair  = []func(*Job){func(j *Job) { j.Rotate(0, brokenRotation) }, square}
	// Four waves of ten members of one family, drained one by one: each
	// runs on device buffers the earlier ones returned to the cache.
	recyclingWaves = scenario{workers: 2, work: workload{seed: 616, fams: fusionFamilies[:4], famReps: 10},
		faults: map[int]func(*testing.T, *run){10: drainWave, 20: drainWave, 30: drainWave},
		check: func(t *testing.T, r *run) {
			hits, _ := r.c.all()[0].Cache().Stats()
			expect(t, hits > 0, "device buffers never recycled: %d cache hits", hits)
		}}
)

func TestDifferentialRandomJobs(t *testing.T) {
	runScenarios(t, scenario{workers: 4, work: workload{seed: 1234, n: 24, maxOps: 6}, racers: 4})
}

// Several workers share Device2's one tile; MaxBatch 1 keeps three
// batches of one in flight on it.
func TestDifferentialDevice2(t *testing.T) {
	runScenarios(t, scenario{shards: shards(d2), workers: 3, cfg: maxBatch(1), work: workload{seed: 99, n: 8, maxOps: 4}})
}

func TestSchedulerMatchesSerialSingleJob(t *testing.T) {
	runScenarios(t, scenario{workers: 2, work: workload{seed: 1, fams: fusionFamilies[2:3], famReps: 1}})
}

func TestSchedulerDrainAndStats(t *testing.T) {
	runScenarios(t, scenario{workers: 2, work: workload{seed: 2, fams: []func(*Job){square}, famReps: 1, reps: 12},
		check: func(t *testing.T, r *run) {
			st := r.c.Stats()
			expect(t, st.Batches > 0 && st.Batches <= st.Jobs, "batches = %d, want 1..%d", st.Batches, st.Jobs)
		}})
}

// A 1-worker scheduler flooded through the smallest queue: Submit
// blocks rather than drop or deadlock, and every job completes.
func TestBackpressureTinyQueues(t *testing.T) {
	runScenarios(t, scenario{workers: 1, cfg: func(cfg *Config) { cfg.MaxBatch, cfg.PendingCap = 1, 1 }, work: workload{seed: 3, fams: []func(*Job){square}, famReps: 1, reps: 10},
		check: func(t *testing.T, r *run) {
			expect(t, r.c.Stats().MaxBatch == 1, "MaxBatch = %d, want 1", r.c.Stats().MaxBatch)
		}})
}

// Same-shape jobs behind a held worker coalesce: the dispatcher batches
// whatever has accumulated.
func TestBatchingCoalescesSameShape(t *testing.T) {
	runScenarios(t, scenario{workers: 1, work: workload{seed: 4, fams: []func(*Job){square}, famReps: 1, reps: 24}, mode: held,
		check: func(t *testing.T, r *run) {
			checkCoalesced(t, r)
			expect(t, r.c.Stats().Batches < r.c.Stats().Jobs, "%d batches for %d jobs", r.c.Stats().Batches, r.c.Stats().Jobs)
		}})
}

// Replicas under WFQ: fused and unfused batches interleave with
// singletons under every policy decision.
func TestFusedDifferentialRandomQoSMix(t *testing.T) {
	runScenarios(t, scenario{workers: 3, work: workload{seed: 987, n: 8, maxOps: 5, reps: 3, qos: true}, racers: 4})
}

// The same mix over another seed, every batch on gathered transfers.
func TestTransferDifferentialRandomQoS(t *testing.T) {
	runScenarios(t, scenario{workers: 3, work: workload{seed: 272727, n: 8, maxOps: 5, reps: 3, qos: true}, racers: 4, check: checkTransfers})
}

func TestQoSDifferentialRandomMix(t *testing.T) {
	runScenarios(t, qosRows(scenario{workers: 3, work: workload{seed: 7919, n: 18, maxOps: 5, qos: true}, racers: 3}, "wfq", "priority", "edf")...)
}

func TestClusterDifferentialQoSMixed(t *testing.T) {
	runScenarios(t, qosRows(scenario{shards: heteroPair, workers: 2, work: workload{seed: 104729, n: 20, maxOps: 5, qos: true}, racers: 4}, "wfq", "priority", "edf")...)
}

// Random chains, wherever the router put them.
func TestClusterDifferentialHeterogeneous(t *testing.T) {
	runScenarios(t, scenario{shards: heteroPair, workers: 2, work: workload{seed: 4321, n: 24, maxOps: 6}, racers: 4,
		check: func(t *testing.T, r *run) {
			st := r.c.Stats()
			var routed int64
			for i, n := range st.Routed {
				routed += n
				expect(t, n > 0, "shard %d received no jobs (routed %v)", i, st.Routed)
			}
			expect(t, routed == st.Jobs, "routed counts sum to %d, want %d", routed, st.Jobs)
		}})
}

// Coalescing families: bit-identical whichever shard fused which batch.
func TestClusterFusedDifferential(t *testing.T) {
	runScenarios(t, scenario{shards: heteroPair, workers: 2, work: workload{seed: 31337, fams: fusionFamilies, famReps: 3}, racers: 4})
}

// The DAG-shaped families: the cluster merge carries the transfer
// counters (the teardown reconciles their shard and class sums).
func TestClusterTransferDifferential(t *testing.T) {
	runScenarios(t, scenario{shards: heteroPair, workers: 2, work: workload{seed: 424242, fams: transferFamilies, famReps: 3}, racers: 4, check: checkTransfers})
}

// A backlog piled onto shard 0 past the router is partly stolen by the
// idle shard.
func TestClusterStealsToIdleShard(t *testing.T) {
	runScenarios(t, scenario{shards: shards(d1, d1), workers: 1,
		cfg:  func(cfg *Config) { cfg.MaxBatch, cfg.PendingCap = 2, 64 },
		work: workload{seed: 1, fams: []func(*Job){square}, famReps: 1, reps: 40}, mode: pinned,
		check: func(t *testing.T, r *run) {
			st := r.c.Stats()
			expect(t, st.Stolen[1] > 0 && st.PerShard[1].Jobs > 0, "idle shard stole nothing (stolen %v, it ran %d)", st.Stolen, st.PerShard[1].Jobs)
			expect(t, st.StolenIn == st.StolenOut, "steal accounting unbalanced: %d in vs %d out", st.StolenIn, st.StolenOut)
		}})
}

func TestClusterStatsAggregate(t *testing.T) {
	runScenarios(t, scenario{shards: heteroPair, workers: 2, work: workload{seed: 2, fams: []func(*Job){square}, famReps: 1, reps: 10},
		check: func(t *testing.T, r *run) { expect(t, r.c.SimulatedSeconds() > 0, "no simulated time accumulated") }})
}

// The matrices run each workload coalesced ("default") and as batches
// of one ("maxbatch=1"): k >= 2 and k = 1 on the one path.
func TestGraphDifferentialMatrix(t *testing.T) {
	runScenarios(t,
		scenario{name: "default", workers: 3, work: workload{seed: 20260807, n: 3, nodes: 6, maxOps: 4}, racers: 3, check: checkEdges},
		scenario{name: "maxbatch=1", workers: 3, cfg: maxBatch(1), work: workload{seed: 20260807, n: 3, nodes: 6, maxOps: 4}, racers: 3, check: checkEdges})
}

// Affinity keeps consumers near producers when it can; the rest
// rematerialize through the host.
func TestGraphDifferentialClusterHeterogeneous(t *testing.T) {
	runScenarios(t, scenario{shards: heteroPair, workers: 2, work: workload{seed: 777, n: 4, nodes: 5, maxOps: 4}, racers: 4, check: checkEdges})
}

// A shard retires while graphs race in: queued consumers migrate, their
// resolved residencies rematerialize host-side.
func TestGraphClusterDrainShardMidRun(t *testing.T) {
	runScenarios(t, scenario{shards: heteroPair, workers: 2, work: workload{seed: 31337, n: 4, nodes: 5, maxOps: 3}, racers: 4,
		faults: map[int]func(*testing.T, *run){2: func(t *testing.T, r *run) { r.c.DrainShard(0) }}})
}

// The hop prices time and never touches payloads.
func TestRemoteBackendDifferential(t *testing.T) {
	runScenarios(t, scenario{shards: []ShardSpec{{Device: d1, Node: 0}, {Device: d1, Node: 1, Link: NetLink{LatencySeconds: 5e-6, GBps: 8}}},
		workers: 2, work: workload{seed: 99, n: 16, maxOps: 5},
		check: func(t *testing.T, r *run) {
			st, ls := r.c.Stats(), r.links()
			expect(t, st.Routed[1] > 0, "remote shard received no jobs (routed %v)", st.Routed)
			expect(t, ls.Hops > 0 && ls.HopCycles > 0, "the remote link was crossed %d times (%g cycles)", ls.Hops, ls.HopCycles)
		}})
}

// Links that lose submissions outright (data loss, not a timing fault)
// stay invisible to callers under a retry budget.
func TestRetryLinkFaultDifferential(t *testing.T) {
	runScenarios(t, scenario{shards: remotePair, workers: 2,
		cfg:  func(cfg *Config) { cfg.Retry = RetryPolicy{MaxAttempts: 4} },
		work: workload{seed: 777, n: 16, maxOps: 4},
		faults: map[int]func(*testing.T, *run){
			4: func(t *testing.T, r *run) { r.c.Faults().FailHops(0, 2) },
			8: func(t *testing.T, r *run) { r.c.Faults().FailHops(1, 2) },
		},
		check: func(t *testing.T, r *run) {
			expect(t, r.links().Faulted > 0, "no link fault was consumed")
			expect(t, r.c.Stats().RetryAttempts >= 1, "RetryAttempts = %d, want >= 1", r.c.Stats().RetryAttempts)
		}})
}

func TestChaosDifferential(t *testing.T) {
	runScenarios(t, chaosRow("default", 0), chaosRow("maxbatch=1", 1))
}

// Degraded links: the sick shard is routed around, simulated time
// absorbs the retransmits, and no payload changes. Each fault is armed
// where a later hop must consume it. A fault armed on a fixed shard at a
// fixed submission may meet no hop there: the router steers new work
// away from a shard a fault marks sick, and the steal round may move a
// shard's whole queue to an idle one before its workers pull any of it.
// So the batch hook arms each fault on the shard that starts the first
// batch after the fault's unit goes in — the delay at unit 4, the drop
// at unit 8 — and that batch's launches and download cross the faulty
// link.
func TestChaosRemoteHops(t *testing.T) {
	var delay, drop atomic.Bool
	runScenarios(t, scenario{shards: remotePair, workers: 2, work: workload{seed: 555, n: 16, maxOps: 4},
		faults: map[int]func(*testing.T, *run){
			0: func(t *testing.T, r *run) {
				for _, sh := range r.c.all() {
					sh, next := sh, sh.onBatch
					sh.onBatch = func() {
						if delay.CompareAndSwap(true, false) {
							r.c.Faults().DelayHops(sh.id, 40e-6, 8)
						}
						if drop.CompareAndSwap(true, false) {
							r.c.Faults().DropHops(sh.id, 4)
						}
						next()
					}
				}
			},
			4: func(*testing.T, *run) { delay.Store(true) },
			8: func(*testing.T, *run) { drop.Store(true) },
		},
		check: func(t *testing.T, r *run) {
			ls := r.links()
			expect(t, ls.Delayed > 0 && ls.Dropped > 0, "link faults not consumed: %d delayed, %d dropped hops", ls.Delayed, ls.Dropped)
		}})
}

// The supervisor absorbs one kill with its warm standby and
// cold-rebuilds the other.
func TestChaosKillUnderSelfHeal(t *testing.T) {
	runScenarios(t, scenario{shards: chaosTrio, workers: 2, cfg: selfHeal(1), work: workload{seed: 9100, n: 24, maxOps: 4}, racers: 3,
		faults: map[int]func(*testing.T, *run){
			0:  func(t *testing.T, r *run) { r.c.Faults().KillShardAfter(0, 2) },
			12: func(t *testing.T, r *run) { r.c.Faults().KillShard(1) },
		},
		check: func(t *testing.T, r *run) {
			st := r.c.Stats()
			expect(t, st.Killed == 2 && st.StandbyPromoted >= 1, "Killed = %d, StandbyPromoted = %d, want 2 and >= 1", st.Killed, st.StandbyPromoted)
		}})
}

// A shard killed by its own first batch surrenders it for replay.
func TestKillMidBatchNeverWedges(t *testing.T) {
	runScenarios(t, scenario{shards: shards(d1, d1), workers: 2, work: workload{seed: 4242, n: 16, maxOps: 4},
		faults: map[int]func(*testing.T, *run){0: func(t *testing.T, r *run) { r.c.Faults().KillShardAfter(0, 1) }},
		check: func(t *testing.T, r *run) {
			st := r.c.Stats()
			expect(t, st.Killed == 1 && st.Replayed >= 1, "killed %d / replayed %d, want 1 / >= 1", st.Killed, st.Replayed)
		}})
}

// A Submit blocked on a shard that dies under it lands in the dead
// shard's queues, surrenders and replays elsewhere.
func TestBackpressuredSubmitSurvivesKill(t *testing.T) {
	runScenarios(t, scenario{shards: shards(d1, d1), workers: 1,
		cfg:    func(cfg *Config) { cfg.MaxBatch, cfg.PendingCap = 1, 4 },
		work:   workload{seed: 5, fams: []func(*Job){square}, famReps: 1, reps: 20},
		faults: map[int]func(*testing.T, *run){0: func(t *testing.T, r *run) { r.c.Faults().KillShardAfter(0, 3) }},
		check: func(t *testing.T, r *run) {
			expect(t, r.c.Stats().Killed == 1, "Killed = %d, want 1", r.c.Stats().Killed)
		}})
}

// A warm standby enters the routing tables inside the kill, before the
// dead shard's backlog evacuates: the kill is invisible.
func TestSelfHealStandbyPromotion(t *testing.T) {
	runScenarios(t, scenario{shards: chaosTrio, workers: 2, cfg: selfHeal(1), work: workload{seed: 9001, n: 24, maxOps: 4}, racers: 3,
		faults: map[int]func(*testing.T, *run){0: func(t *testing.T, r *run) { r.c.Faults().KillShardAfter(0, 2) }},
		check: func(t *testing.T, r *run) {
			st, f := r.c.Stats(), r.c.Faults()
			expect(t, st.Killed == 1 && st.StandbyPromoted == 1, "Killed = %d, StandbyPromoted = %d, want 1 and 1", st.Killed, st.StandbyPromoted)
			expect(t, f.Health(0) == "killed" && f.Health(r.c.Shards()-1) == "ok",
				"health of the dead shard and the promoted one = %q, %q, want killed, ok", f.Health(0), f.Health(r.c.Shards()-1))
		}})
}

// With no standby the supervisor rebuilds the killed shard from its
// spec, in its failure domain, and later traffic lands on it.
func TestSelfHealColdReplacement(t *testing.T) {
	runScenarios(t, scenario{shards: shards(d1, d1), workers: 2, cfg: selfHeal(0), work: workload{seed: 9002, n: 8, maxOps: 4},
		faults: map[int]func(*testing.T, *run){0: func(t *testing.T, r *run) {
			expect(t, r.c.Faults().KillShard(0), "KillShard(0) returned false")
			waitSupervisor(t, "cold-replace the killed shard", func() bool { return r.c.Shards() == 3 })
			dead, repl := r.c.all()[0], r.c.all()[2]
			expect(t, repl.spec.Node == dead.spec.Node && r.c.Faults().Health(2) == "ok",
				"replacement on node %d, health %q, want the dead shard's node %d, ok", repl.spec.Node, r.c.Faults().Health(2), dead.spec.Node)
		}},
		check: func(t *testing.T, r *run) {
			expect(t, r.c.Stats().Added >= 1, "Added = %d, want >= 1", r.c.Stats().Added)
		}})
}

// DAGs on shards that die mid-stream: surrendered consumers
// rematerialize their inputs through the owner path and replay.
func TestChaosGraphDifferential(t *testing.T) {
	runScenarios(t, scenario{shards: chaosTrio, workers: 2, cfg: chaos(0), work: workload{seed: 8123, n: 4, nodes: 5, maxOps: 3},
		faults: map[int]func(*testing.T, *run){
			0: func(t *testing.T, r *run) { r.c.Faults().KillShardAfter(0, 2) },
			3: func(t *testing.T, r *run) { r.c.Faults().KillShard(1) },
		},
		check: func(t *testing.T, r *run) {
			expect(t, r.c.Stats().Killed >= 1, "Killed = %d, want >= 1", r.c.Stats().Killed)
		}})
}

// Families held behind the first batch coalesce and run fused.
func TestFusedDifferentialFamilies(t *testing.T) {
	runScenarios(t, scenario{workers: 1, work: workload{seed: 4242, fams: fusionFamilies, famReps: 4}, mode: held,
		check: func(t *testing.T, r *run) {
			checkCoalesced(t, r)
			st := r.c.Stats()
			expect(t, st.FusedSteps > 0, "no fusion: %d fused steps", st.FusedSteps)
		}})
}

// One chain at two input levels, the levels interleaved, never shares
// a shape key, hence a batch; same-level jobs still coalesce.
func TestMixedLevelJobsDoNotFuse(t *testing.T) {
	runScenarios(t, scenario{workers: 1, work: workload{seed: 808, fams: slices.Repeat(mixedLevels, 8), famReps: 1}, mode: held,
		check: func(t *testing.T, r *run) {
			checkCoalesced(t, r)
			expect(t, r.units[0].c.Job.ShapeKey() != r.units[1].c.Job.ShapeKey(), "mixed-level jobs share a shape key")
		}})
}

// Batch waves recycle device buffers through the cache.
func TestFusedMemcacheRecycling(t *testing.T) { runScenarios(t, recyclingWaves) }

// Gathered transfers land in recycled device buffers: every wave still
// moves its data both ways, and every buffer goes back to the cache.
func TestTransferStagingReuse(t *testing.T) {
	row := recyclingWaves
	row.check = func(t *testing.T, r *run) {
		recyclingWaves.check(t, r)
		st := r.c.Stats()
		expect(t, st.TransferBatches >= 8 && st.BytesH2D > 0 && st.BytesD2H > 0,
			"four waves moved %d gathered transfers (%d/%d bytes); want at least one each way per wave",
			st.TransferBatches, st.BytesH2D, st.BytesD2H)
		checkPoolsReturned(t, "after the last wave", r.c.all()[0].Cache())
	}
	runScenarios(t, row)
}

// Batches and coalesced jobs belong to the class whose queue formed
// them; a class that never ran reports zero.
func TestPerClassCoalescingStats(t *testing.T) {
	runScenarios(t, scenario{workers: 1, work: workload{seed: 3, fams: []func(*Job){square}, famReps: 1, reps: 18}, mode: held,
		check: func(t *testing.T, r *run) {
			checkCoalesced(t, r)
			for _, pc := range r.c.Stats().PerClass {
				expect(t, pc.Name == "batch" || pc.Batches == 0 && pc.Coalesced == 0 && pc.MaxBatch == 0,
					"idle class %q reports %d batches, %d coalesced, max batch %d", pc.Name, pc.Batches, pc.Coalesced, pc.MaxBatch)
			}
		}})
}

// A step over k jobs cannot pin an in-kernel panic on one: the worker
// re-runs the batch job by job (unfused), fails the broken jobs with
// the per-op error and completes the healthy ones.
func TestFusedFallbackIsolatesFailure(t *testing.T) {
	runScenarios(t, scenario{workers: 1, broken: true, work: workload{seed: 4, fams: brokenPair, famReps: 5}, mode: held,
		check: func(t *testing.T, r *run) {
			checkCoalesced(t, r)
			expect(t, r.c.Stats().UnfusedSteps > 0, "coalesced broken batches must account fallback steps as unfused")
		}})
}

// The same fallback in burst order, the five broken jobs ahead of the
// five healthy ones (the runner counts the failures, the teardown the
// pools).
func TestTransferFallbackIsolatesFailure(t *testing.T) {
	runScenarios(t, scenario{workers: 1, broken: true, work: workload{seed: 5, fams: brokenPair, famReps: 1, reps: 5}})
}

func TestTransferDifferentialMatrix(t *testing.T) {
	runScenarios(t,
		scenario{name: "default", workers: 1, work: workload{seed: 1717, fams: transferFamilies, famReps: 3}, check: checkTransfers},
		scenario{name: "maxbatch=1", workers: 1, cfg: maxBatch(1), work: workload{seed: 1717, fams: transferFamilies, famReps: 3}, check: checkTransfers})
}

// Eight singleton batches still ride the gathered transfer path.
func TestTransferBatchOfOne(t *testing.T) {
	runScenarios(t, scenario{workers: 2, cfg: maxBatch(1), work: workload{seed: 99, fams: transferFamilies[1:], famReps: 1},
		check: func(t *testing.T, r *run) {
			checkTransfers(t, r)
			expect(t, r.c.Stats().MaxBatch == 1, "MaxBatch = %d, want 1", r.c.Stats().MaxBatch)
		}})
}

// The hold fixes every batch: unit 0 alone (the worker parks on it),
// then the eleven queued behind as 4 + 4 + 3 — two full batches and a
// ragged coalesced tail whose gathered transfers cover fewer rows.
func TestTransferRaggedFinalBatch(t *testing.T) {
	runScenarios(t, scenario{workers: 1, cfg: func(cfg *Config) { cfg.MaxBatch, cfg.PendingCap = 4, 16 },
		work: workload{seed: 31, fams: fusionFamilies[2:3], famReps: 12}, mode: held,
		check: func(t *testing.T, r *run) { checkBatches(t, r, 4, 4, 11) }})
}

// Two held workers, one job each, and a same-shape burst of
// 2 x MaxBatch + 2 behind them: on release each worker pulls a full
// batch and one prefetch takes the ragged rest, so besides the two
// held singletons the burst runs as 8 + 8 + 2 and every job of it is
// coalesced.
func TestHeldBurstCoalescesOnTwoWorkers(t *testing.T) {
	runScenarios(t, scenario{workers: 2, work: workload{seed: 32, fams: []func(*Job){square}, famReps: 1, reps: 20}, mode: held,
		check: func(t *testing.T, r *run) { checkBatches(t, r, 5, 8, 18) }})
}

// An idle worker's wait for work is what worker.idle_empty_wall_ns
// counts: a gap between two waves, with nothing queued, shows there.
func TestIdleWaitIsAttributed(t *testing.T) {
	const gap = 20 * time.Millisecond
	runScenarios(t, scenario{workers: 1, work: workload{seed: 33, fams: []func(*Job){square}, famReps: 1, reps: 2},
		faults: map[int]func(*testing.T, *run){1: func(t *testing.T, r *run) {
			r.c.Drain()
			time.Sleep(gap)
		}},
		check: func(t *testing.T, r *run) {
			in, _ := r.c.Metrics().Get("worker.idle_empty_wall_ns")
			expect(t, in.Value >= float64(gap/2), "worker.idle_empty_wall_ns = %v after a %v idle gap", in.Value, gap)
		}})
}
