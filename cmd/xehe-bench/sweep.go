package main

// The serving sweeps: one table of scenarios (scenarios.go) and one run
// loop (measure), the only place a Service or Cluster is built, warmed
// and timed. A sweep enforces what repeats on every run — conservation,
// bit-identity, counters — and prints the rest: rates and ratios are
// single draws inside a 20-75 % same-code spread (ARCHITECTURE.md,
// "Sweeps").

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"xehe"
)

// result is one JSON row of a sweep.
type result struct {
	Bench         string  `json:"bench"`             // the scenario
	Config        string  `json:"config"`            // the variant: device layout, policy, mode or drill
	Workers       int     `json:"workers,omitempty"` // pool size; omitted when defaulted per device
	Devices       int     `json:"devices"`
	Jobs          int     `json:"jobs"`             // jobs accepted (per-class rows: completed)
	JobsPerSec    float64 `json:"jobs_per_sec"`     // host wall-clock
	SimJobsPerSec float64 `json:"sim_jobs_per_sec"` // simulated device time
	Batches       int64   `json:"batches,omitempty"`
	Coalesced     int64   `json:"coalesced,omitempty"`
	// graph: bytes staged each way, consumer jobs, edges resolved on-device.
	BytesH2D       int64 `json:"bytes_h2d,omitempty"`
	BytesD2H       int64 `json:"bytes_d2h,omitempty"`
	GraphJobs      int64 `json:"graph_jobs,omitempty"`
	ResidentHits   int64 `json:"resident_hits,omitempty"`
	ResidentMisses int64 `json:"resident_misses,omitempty"`
	// cluster, chaos: per shard, jobs admitted from the router / placed off another shard.
	Routed []int64 `json:"routed,omitempty"`
	Stolen []int64 `json:"stolen,omitempty"`
	// mixed: the per-class rows. chaos: the batch class's quantiles (the recovery tail).
	Class        string  `json:"class,omitempty"`
	P50Ms        float64 `json:"p50_sim_ms,omitempty"`
	P99Ms        float64 `json:"p99_sim_ms,omitempty"`
	DeadlineHit  int64   `json:"deadline_hit,omitempty"`
	DeadlineMiss int64   `json:"deadline_miss,omitempty"`
	Rejected     int64   `json:"rejected,omitempty"`
	// trace: spans recorded and spans lost to drop-oldest overwrite.
	Spans        int64 `json:"spans,omitempty"`
	SpansDropped int64 `json:"spans_dropped,omitempty"`
	// chaos: the failure-domain and recovery counters of ClusterStats.
	KilledShards      int64 `json:"killed_shards,omitempty"`
	RecoveredJobs     int64 `json:"recovered_jobs,omitempty"`
	ReplayedJobs      int64 `json:"replayed_jobs,omitempty"`
	AddedShards       int64 `json:"added_shards,omitempty"`
	StandbyPromotions int64 `json:"standby_promotions,omitempty"`
	DrainedJobs       int64 `json:"drained_jobs,omitempty"`
	MigratedResidents int64 `json:"migrated_residents,omitempty"`
	RetryAttempts     int64 `json:"retry_attempts,omitempty"`
}

// inputs are the job ingredients every sweep shares.
type inputs struct {
	params   *xehe.Parameters
	kit      *xehe.KeyKit
	cta, ctb *xehe.Ciphertext
}

func newInputs() *inputs {
	params := xehe.NewParameters(xehe.ParamsDemo())
	kit := xehe.GenerateKeys(params, 17, 1)
	v := make([]complex128, params.Slots())
	for i := range v {
		v[i] = complex(0.25, 0.1)
	}
	return &inputs{params, kit, kit.Encrypt(v), kit.Encrypt(v)}
}

// job is the standard job: MulRelinRescale + Rotate at N=4096, L=4.
func (in *inputs) job() *xehe.Job {
	job := xehe.NewJob(in.cta, in.ctb)
	r := job.MulRelinRescale(0, 1)
	job.Rotate(r, 1)
	return job
}

// A stream pushes the n jobs of a measured phase through submit and
// returns the futures whose ciphertexts are the run's output. submit
// returns nil for a job not accepted: shed (ErrOverloaded, a full
// interactive share), or refused after an error the run loop has kept.
type stream func(in *inputs, n int, submit func(*xehe.Job) *xehe.Pending) []*xehe.Pending

// classed is n standard jobs, job i in the class and under the deadline
// classOf gives it.
func classed(classOf func(i int) (xehe.JobClass, float64)) stream {
	return func(in *inputs, n int, submit func(*xehe.Job) *xehe.Pending) []*xehe.Pending {
		outs := make([]*xehe.Pending, 0, n)
		for i := 0; i < n; i++ {
			class, deadline := classOf(i)
			if f := submit(in.job().WithClass(class).WithDeadline(deadline)); f != nil {
				outs = append(outs, f)
			}
		}
		return outs
	}
}

// mixedDeadline is the interactive latency target of the mixed stream
// in simulated seconds.
const mixedDeadline = 0.010

var (
	uniform = classed(func(int) (xehe.JobClass, float64) { return xehe.Batch, 0 })
	// mixed is the standard class mix: 20% interactive (with a
	// deadline), 10% background, 70% batch.
	mixed = classed(func(i int) (xehe.JobClass, float64) {
		switch {
		case i%5 == 0:
			return xehe.Interactive, mixedDeadline
		case i%10 == 3:
			return xehe.Background, 0
		}
		return xehe.Batch, 0
	})
)

// graphDepth is the chain length of the graph sweep: one standard job,
// then graphDepth-1 rotate-add rounds over its output.
const graphDepth = 4

// addRound appends one rotate-add reduction round over value v.
func addRound(job *xehe.Job, v int) *xehe.Job {
	job.Add(v, job.Rotate(v, 1))
	return job
}

// chains is n/graphDepth chains of graphDepth jobs. Linked, a round
// takes the previous one's output device-resident through InputFrom and
// only the tails download. Unlinked, every round's result is downloaded
// and uploaded again for the next; a round runs across all chains at
// once so the device still sees chain-parallel work.
func chains(linked bool) stream {
	return func(in *inputs, n int, submit func(*xehe.Job) *xehe.Pending) []*xehe.Pending {
		tails := make([]*xehe.Pending, max(1, n/graphDepth))
		if linked {
			for c := range tails {
				tails[c] = submit(in.job())
				for round := 1; round < graphDepth && tails[c] != nil; round++ {
					job := xehe.NewJob()
					tails[c] = submit(addRound(job, job.InputFrom(tails[c])))
				}
			}
			return tails
		}
		for c := range tails {
			tails[c] = submit(in.job())
		}
		for round := 1; round < graphDepth; round++ {
			cts := make([]*xehe.Ciphertext, len(tails))
			for c, f := range tails {
				if f != nil {
					cts[c], _ = f.Wait() // a failed round shows in Stats.Failed
				}
			}
			for c, ct := range cts {
				if tails[c] = nil; ct != nil {
					tails[c] = submit(addRound(xehe.NewJob(ct), 0))
				}
			}
		}
		return tails
	}
}

// variant is one configuration of a scenario: one emitted row.
type variant struct {
	config string
	devs   []xehe.DeviceKind // one: a xehe.Service's shape, a one-shard cluster
	cfg    xehe.ClusterConfig
	stream stream
	// drill, if set, fires once, just before the job a quarter of the way
	// through the stream is submitted.
	drill func(*xehe.Cluster)
	// check, if set, states a deterministic fact about the run (against
	// the scenario's first run where it is a comparison): in words when
	// it holds, as an error when it does not.
	check func(r, first *pass) (string, error)
}

// scenario is one sweep: the rows named bench.
type scenario struct {
	name     string
	variants []variant
	// reps runs every variant this many times, checks each run and emits
	// the one of median simulated throughput.
	reps      int
	identical bool                       // every run's outputs equal the first run's bit for bit
	perClass  bool                       // a row per QoS class under each variant's row
	fill      func(row *result, r *pass) // the counters this scenario's rows carry
}

// pass is one measured run of a variant.
type pass struct {
	accepted       int               // jobs the stream had accepted
	wall, sim      float64           // the measured phase in host and in simulated seconds
	d              xehe.ClusterStats // Stats, the warm-up's counts taken off (since)
	spans, dropped int64             // TraceCounts
	digest         [sha256.Size]byte // of the outputs' wire form, in stream order
}

func (r *pass) simRate() float64 { return float64(r.accepted) / r.sim }

// since returns st with the counters the warm-up moved — standard
// batch-class jobs, so not the deadline, shed, graph or fault counters —
// reduced by their value at the warm baseline.
func since(st, warm xehe.ClusterStats) xehe.ClusterStats {
	st.Jobs -= warm.Jobs
	st.Batches -= warm.Batches
	st.Coalesced -= warm.Coalesced
	st.BytesH2D -= warm.BytesH2D
	st.BytesD2H -= warm.BytesD2H
	for i := range warm.Routed { // st may have grown by a shard
		st.Routed[i] -= warm.Routed[i]
		st.Stolen[i] -= warm.Stolen[i]
	}
	for i, w := range warm.PerClass {
		st.PerClass[i].Completed -= w.Completed
	}
	return st
}

// measure is the run loop: build the variant's Cluster (a service row's
// is one shard, which is what a xehe.Service is), warm it, reset the simulated clocks, take the counter baseline, push the
// stream through (firing the drill at 25 %), wait, read the clocks and
// the counters. Every run must conserve: each output resolves, and the
// jobs completed since the baseline are the jobs accepted, none failed.
func measure(in *inputs, v variant, n int, tracePath string) (*pass, error) {
	t := xehe.NewCluster(in.params, in.kit, v.devs, v.cfg)
	defer t.Close()
	// Warm the buffer cache to the working set (8 jobs a device, 4 a
	// worker) before the clocks are reset: cold driver allocations
	// serialize the pipeline and would mask steady-state scaling.
	for i := max(8*len(v.devs), 4*v.cfg.Workers); i > 0; i-- {
		if _, err := t.Submit(in.job()); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	t.Wait()
	t.ResetSimClocks()
	warm := t.Stats()

	r := &pass{}
	var err error // the first submission error; nothing is submitted after it
	submitted, drills := 0, 0
	start := time.Now()
	outs := v.stream(in, n, func(job *xehe.Job) *xehe.Pending {
		if err != nil {
			return nil
		}
		if v.drill != nil && submitted == n/4 {
			drills++
			v.drill(t)
		}
		submitted++
		f, e := t.Submit(job)
		if e == nil {
			r.accepted++
		} else if !errors.Is(e, xehe.ErrOverloaded) {
			err = e
		}
		return f
	})
	t.Wait()
	r.wall, r.sim = time.Since(start).Seconds(), t.SimulatedSeconds()
	r.d = since(t.Stats(), warm)
	r.spans, r.dropped = t.TraceCounts()

	h := sha256.New()
	for i := 0; i < len(outs) && err == nil; i++ {
		if outs[i] == nil {
			err = fmt.Errorf("output %d is missing: a job before it failed or was refused", i)
		} else if ct, e := outs[i].Wait(); e != nil {
			err = fmt.Errorf("output %d: %w", i, e)
		} else {
			err = ct.Serialize(h)
		}
	}
	h.Sum(r.digest[:0])
	if err == nil && (r.d.Jobs != int64(r.accepted) || r.d.Failed != 0) {
		err = fmt.Errorf("not conserved: %d jobs accepted, %d completed, %d failed", r.accepted, r.d.Jobs, r.d.Failed)
	}
	if err == nil && v.drill != nil && drills != 1 {
		err = fmt.Errorf("drill fired %d times, want once", drills)
	}
	if err == nil && tracePath != "" && v.cfg.Trace.Enabled {
		var f *os.File
		if f, err = os.Create(tracePath); err == nil {
			err = errors.Join(t.WriteTrace(f), f.Close())
		}
	}
	return r, err
}

// runSweeps runs the selected scenarios in table order. Rows go to
// stdout as JSON; stderr gets a line per variant (its simulated rate
// also against the scenario's first variant: a single draw, reported
// and never gated) and, per scenario, the facts that held on every run.
func runSweeps(selected []string, n int, tracePath string, stdout, stderr io.Writer) error {
	in := newInputs()
	enc := json.NewEncoder(stdout)
	for _, sc := range scenarios {
		if !slices.Contains(selected, sc.name) && !slices.Contains(selected, "all") {
			continue
		}
		held := []string{"accepted = completed, 0 failed"} // or measure fails
		note := func(fact string) {
			if !slices.Contains(held, fact) {
				held = append(held, fact)
			}
		}
		var first *pass
		var base float64
		for _, v := range sc.variants {
			fail := func(err error) error { return fmt.Errorf("sweep %s, %s: %w", sc.name, v.config, err) }
			runs := make([]*pass, max(1, sc.reps))
			for rep := range runs {
				r, err := measure(in, v, n, tracePath)
				if err != nil {
					return fail(err)
				}
				if first == nil {
					first = r
				}
				if sc.identical {
					if r.digest != first.digest {
						return fail(fmt.Errorf("outputs differ from the first %s run's", sc.variants[0].config))
					}
					note("outputs bit-identical across runs")
				}
				if v.check != nil {
					fact, err := v.check(r, first)
					if err != nil {
						return fail(err)
					}
					note(fact)
				}
				runs[rep] = r
			}
			sort.Slice(runs, func(i, j int) bool { return runs[i].simRate() < runs[j].simRate() })
			r := runs[len(runs)/2]

			rows := []result{{
				Bench: sc.name, Config: v.config, Workers: v.cfg.Workers, Devices: len(v.devs),
				Jobs: r.accepted, JobsPerSec: float64(r.accepted) / r.wall, SimJobsPerSec: r.simRate(),
			}}
			if sc.fill != nil {
				sc.fill(&rows[0], r)
			}
			if sc.perClass {
				for _, pc := range r.d.PerClass {
					rows = append(rows, result{
						Bench: sc.name, Config: v.config, Devices: len(v.devs), Class: pc.Name,
						Jobs: int(pc.Completed), P50Ms: pc.P50 * 1e3, P99Ms: pc.P99 * 1e3,
						DeadlineHit: pc.DeadlineHit, DeadlineMiss: pc.DeadlineMiss, Rejected: pc.Rejected,
					})
				}
			}
			for _, row := range rows {
				if err := enc.Encode(row); err != nil {
					return err
				}
			}
			if base == 0 {
				base = r.simRate()
			}
			fmt.Fprintf(stderr, "%-8s %-18s %6d jobs %8.1f jobs/s %8.0f sim-jobs/s, %3.0f%% of %s\n", sc.name, v.config,
				r.accepted, rows[0].JobsPerSec, r.simRate(), 100*r.simRate()/base, sc.variants[0].config)
		}
		fmt.Fprintf(stderr, "sweep %s enforced: %s\n", sc.name, strings.Join(held, "; "))
	}
	return nil
}
