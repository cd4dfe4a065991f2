package sched

// Observability wiring: the scheduler-side half of internal/obs. A
// TraceConfig knob turns on span recording (job-lifecycle spans into
// per-worker ring buffers plus the device's command trace), WriteTrace
// exports the merged timeline as Chrome-trace-event JSON, and a typed
// metrics registry runs always-on as the scheduler's one ledger: every
// event is counted into exactly one of its instruments, Metrics is its
// snapshot and Stats / ClusterStats are typed views over that snapshot
// (statsView), so the two cannot disagree.
//
// Tracing only READS the simulated clocks (SimulatedSeconds) and never
// advances them, so simulated timing — and therefore results and
// throughput measured on the simulated clock — is bit-for-bit
// identical with tracing on or off; the differential harness pins
// this.

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"time"

	"xehe/internal/memcache"
	"xehe/internal/obs"
	"xehe/internal/qos"
)

// ErrTraceDisabled is returned by WriteTrace when the scheduler (or
// every shard of a cluster) was built without Config.Trace enabled.
var ErrTraceDisabled = errors.New("sched: tracing disabled (enable Config.Trace.Enabled)")

// TraceConfig tunes span tracing. The zero value keeps tracing off:
// every span site is gated on the tracer, so a disabled scheduler pays
// one nil check per site and allocates nothing.
type TraceConfig struct {
	// Enabled turns on span recording and the backing device command
	// trace. Default off.
	Enabled bool
	// SpanCap bounds each ring buffer (one per worker, plus one for the
	// submit path and one for the dispatcher); the oldest spans drop
	// when a ring fills. Default 8192.
	SpanCap int
}

// Span category names (static strings: recording never allocates).
const (
	catAdmit  = "admit"
	catQueue  = "queue"
	catXfer   = "xfer"
	catExec   = "exec"
	catStep   = "step"
	catSettle = "settle"
)

// Tracer ring layout: ring 0 serves Submit (shared by all submitting
// goroutines), ring 1 dispatch decisions (written under qmu, by whichever
// worker pulls), ring 2+i worker i.
const (
	ringSubmit   = 0
	ringDispatch = 1
	ringWorker0  = 2
)

// spanStart captures both clocks at a span's opening edge. The zero
// value (on=false) is the tracing-off no-op: spanEnd ignores it.
type spanStart struct {
	sim  float64
	wall int64
	on   bool
}

// spanBegin stamps a span opening, or nothing when tracing is off.
func (s *Scheduler) spanBegin() spanStart {
	if s.tracer == nil {
		return spanStart{}
	}
	return spanStart{sim: s.dev.SimulatedSeconds(), wall: time.Now().UnixNano(), on: true}
}

// spanEnd closes a span against the current clocks and records it.
func (s *Scheduler) spanEnd(ring *obs.Ring, st spanStart, track, name, cat, class string, batch int64, jobs int) {
	if !st.on {
		return
	}
	ring.Record(obs.Span{
		Track: track, Name: name, Cat: cat, Class: class,
		Start: st.sim, End: s.dev.SimulatedSeconds(),
		Wall: time.Now().UnixNano(), Batch: batch, Jobs: jobs,
	})
}

// obsRing returns ring i, or nil with tracing off (spanEnd ignores the
// ring when the opening edge was a no-op, so a nil ring is safe).
func (s *Scheduler) obsRing(i int) *obs.Ring {
	if s.tracer == nil {
		return nil
	}
	return s.tracer.Ring(i)
}

// className interns the class's name for span attribution.
func (s *Scheduler) className(class int) string { return s.classes[class].Name }

// stepTrace threads per-op-chain-step span recording into the chain
// executor (evalChain). A nil *stepTrace is the tracing-off
// fast path: both methods no-op.
type stepTrace struct {
	s     *Scheduler
	ring  *obs.Ring
	track string
}

// begin opens a step span.
func (tr *stepTrace) begin() spanStart {
	if tr == nil {
		return spanStart{}
	}
	return tr.s.spanBegin()
}

// end closes a step span named after the op code.
func (tr *stepTrace) end(st spanStart, name string, jobs int) {
	if tr == nil || !st.on {
		return
	}
	tr.s.spanEnd(tr.ring, st, tr.track, name, catStep, "", 0, jobs)
}

// schedMetrics is the scheduler's instrument set, and the only thing an
// event is counted into. A counter that breaks down by QoS class exists
// per class only, named "<name>.<class>"; its total is derived from the
// parts of the same snapshot (derivedTotals), which keeps e.g. Jobs ==
// Σ PerClass.Completed in every snapshot with no lock. All instruments
// are atomics, cheap enough to run always-on.
type schedMetrics struct {
	reg *obs.Registry

	class  []classMetrics // by class index
	worker []*obs.Counter // jobs completed, by worker

	fusedSteps, unfusedSteps                *obs.Counter
	bytesH2D, bytesD2H                      *obs.Counter
	placedIn, returned                      *obs.Counter // the two origins of sched.stolen_in
	stolenOut, surrendered                  *obs.Counter
	graphJobs, residentHits, residentMisses *obs.Counter
	idleEmptyNS, stallCopyNS, depParkNS     *obs.Counter
}

// classMetrics is one class's slice of the instrument set. retried is
// written by the owning cluster's retry plane (retry.go).
type classMetrics struct {
	submitted, completed, failed, rejected *obs.Counter
	deadlineHit, deadlineMiss, retried     *obs.Counter
	batches, coalesced, transferBatches    *obs.Counter
	maxBatch                               *obs.Max
	queueDelay, serviceTime                *obs.Histogram
}

// derivedTotals are the instruments nothing writes: each is the sum
// (kind "max": the maximum) of the "<name>.<part>" instruments of the
// snapshot it appears in — per class, except sched.stolen_in (placed /
// returned). The cluster.* parts live in the cluster's registry and in
// its shards' (retry attempts are counted on the shard they failed on).
var derivedTotals = []string{
	"sched.jobs_submitted", "sched.jobs_completed", "sched.jobs_failed", "sched.jobs_rejected",
	"sched.batches", "sched.max_batch", "sched.jobs_coalesced", "sched.transfer_batches",
	"sched.stolen_in", "cluster.retry_attempts", "cluster.shed_jobs",
}

// newSchedMetrics builds the instrument set over the class table and
// the worker pool, and registers the gauges: the buffer cache's pools
// and the tracer's dropped-span total.
func newSchedMetrics(classes []qos.Class, workers int, cache *memcache.Cache, traceCounts func() (recorded, dropped int64)) *schedMetrics {
	reg := obs.NewRegistry()
	m := &schedMetrics{
		reg:            reg,
		fusedSteps:     reg.Counter("sched.fused_steps"),
		unfusedSteps:   reg.Counter("sched.unfused_steps"),
		bytesH2D:       reg.Counter("sched.bytes_h2d"),
		bytesD2H:       reg.Counter("sched.bytes_d2h"),
		placedIn:       reg.Counter("sched.stolen_in.placed"),
		returned:       reg.Counter("sched.stolen_in.returned"),
		stolenOut:      reg.Counter("sched.stolen_out"),
		surrendered:    reg.Counter("sched.surrendered_jobs"),
		graphJobs:      reg.Counter("sched.graph_jobs"),
		residentHits:   reg.Counter("sched.resident_hits"),
		residentMisses: reg.Counter("sched.resident_misses"),
		idleEmptyNS:    reg.Counter("worker.idle_empty_wall_ns"),
		stallCopyNS:    reg.Counter("worker.stall_copy_sim_ns"),
		depParkNS:      reg.Counter("sched.dep_park_sim_ns"),
	}
	for _, c := range classes {
		n := "." + c.Name
		m.class = append(m.class, classMetrics{
			submitted:       reg.Counter("sched.jobs_submitted" + n),
			completed:       reg.Counter("sched.jobs_completed" + n),
			failed:          reg.Counter("sched.jobs_failed" + n),
			rejected:        reg.Counter("sched.jobs_rejected" + n),
			deadlineHit:     reg.Counter("sched.deadline_hit" + n),
			deadlineMiss:    reg.Counter("sched.deadline_miss" + n),
			retried:         reg.Counter("cluster.retry_attempts" + n),
			batches:         reg.Counter("sched.batches" + n),
			coalesced:       reg.Counter("sched.jobs_coalesced" + n),
			transferBatches: reg.Counter("sched.transfer_batches" + n),
			maxBatch:        reg.Max("sched.max_batch" + n),
			queueDelay:      reg.Histogram("sched.queue_delay_seconds"+n, nil),
			serviceTime:     reg.Histogram("sched.service_seconds"+n, nil),
		})
	}
	for i := 0; i < workers; i++ {
		m.worker = append(m.worker, reg.Counter("worker.jobs."+strconv.Itoa(i)))
	}
	reg.Gauge("memcache.hits", func() float64 { h, _ := cache.Stats(); return float64(h) })
	reg.Gauge("memcache.misses", func() float64 { _, m := cache.Stats(); return float64(m) })
	reg.Gauge("memcache.pinned_buffers", func() float64 { return float64(cache.PinnedCount()) })
	reg.Gauge("memcache.free_buffers", func() float64 { return float64(cache.FreeCount()) })
	reg.Gauge("memcache.used_buffers", func() float64 { return float64(cache.UsedCount()) })
	// A gauge over the rings' own count: nothing to keep current, so
	// concurrent snapshots cannot double count a drop.
	reg.Gauge("trace.spans_dropped", func() float64 { _, d := traceCounts(); return float64(d) })
	return m
}

// fillFrom sets every field of *dst tagged `metric:"<name>"` (all are
// int or int64) to the value of instrument <name><suffix> in v. A name
// v lacks reads 0; TestStatsViewCoversEveryField catches a field with
// no tag or a tag with no instrument.
func fillFrom(dst interface{}, v map[string]float64, suffix string) {
	rv := reflect.ValueOf(dst).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if name, ok := rv.Type().Field(i).Tag.Lookup("metric"); ok {
			rv.Field(i).SetInt(int64(v[name+suffix]))
		}
	}
}

// statsView is the one place a Stats is filled: v is the Values of a
// metrics snapshot with its totals derived, lat the per-class latency
// samples the exact quantiles come from.
func statsView(v map[string]float64, classes []qos.Class, lat [][]float64) Stats {
	st := Stats{PerClass: make([]ClassStats, len(classes))}
	fillFrom(&st, v, "")
	for i := 0; ; i++ {
		jobs, ok := v["worker.jobs."+strconv.Itoa(i)]
		if !ok {
			break
		}
		st.PerWorker = append(st.PerWorker, int64(jobs))
	}
	for k, c := range classes {
		pc := &st.PerClass[k]
		pc.Name = c.Name
		fillFrom(pc, v, "."+c.Name)
		pc.P50, pc.P99 = quantiles(lat[k])
	}
	return st
}

// Metrics snapshots the scheduler's instrument registry with its totals
// derived: the counters Stats is a view of, plus per-class
// queueing-delay and service-time histograms, worker idle/stall
// attribution and pool occupancy gauges.
func (s *Scheduler) Metrics() obs.Snapshot {
	return s.met.reg.Snapshot().WithTotals(derivedTotals...)
}

// TraceCounts reports the live and dropped span totals across the
// scheduler's rings (both zero with tracing off).
func (s *Scheduler) TraceCounts() (recorded, dropped int64) {
	if s.tracer == nil {
		return 0, 0
	}
	return s.tracer.Counts()
}

// TraceProcess assembles the scheduler's spans and its device's
// per-tile compute/copy command timelines into one exporter process.
// Returns false when tracing is off.
//
// Track layout (top to bottom): "submit" (admission spans), "dispatch"
// (batch-formation markers), one "queue <class>" row per QoS class
// (pending-queue residency), one "worker <i>" row per worker (H2D /
// exec / per-op steps / D2H / settle), then "tile<T> compute" and
// "tile<T> copy" rows carrying every device command.
func (s *Scheduler) TraceProcess(name string) (obs.Process, bool) {
	if s.tracer == nil {
		return obs.Process{}, false
	}
	spans := s.tracer.Spans()
	order := []string{trkSubmit, trkDispatch}
	for _, c := range s.classes {
		order = append(order, "queue "+c.Name)
	}
	for _, w := range s.workers {
		order = append(order, w.track)
	}
	dev := s.dev
	for t := 0; t < dev.Spec.Tiles; t++ {
		order = append(order, fmt.Sprintf("tile%d compute", t), fmt.Sprintf("tile%d copy", t))
	}
	for _, e := range dev.Trace() {
		track := "compute"
		if e.Copy {
			track = "copy"
		}
		spans = append(spans, obs.Span{
			Track: fmt.Sprintf("tile%d %s", e.Tile, track),
			Name:  e.Name, Cat: "device",
			Start: dev.Seconds(e.Start), End: dev.Seconds(e.End),
		})
	}
	return obs.Process{Name: name, Spans: spans, TrackOrder: order}, true
}

// Static track names for the non-worker rings.
const (
	trkSubmit   = "submit"
	trkDispatch = "dispatch"
)

// snapshots returns every shard's Metrics followed by the cluster's own
// counters (jobs shed cluster-wide, the recovery plane's drained /
// recovered / replayed jobs), totals derived in each: a sum of sums and
// a maximum of maxima, so their Merge needs no second derivation.
func (c *Cluster) snapshots(shards []*Scheduler) []obs.Snapshot {
	snaps := make([]obs.Snapshot, 0, len(shards)+1)
	for _, sh := range shards {
		snaps = append(snaps, sh.Metrics())
	}
	return append(snaps, c.obsReg.Snapshot().WithTotals(derivedTotals...))
}

// Metrics merges the shards' snapshots and the cluster's own: counters
// and histogram buckets sum by name, maxima stay maxima, gauges add —
// so e.g. memcache.pinned_buffers reports the cluster total.
func (c *Cluster) Metrics() obs.Snapshot { return obs.Merge(c.snapshots(c.all())...) }

// TraceCounts sums the recorded and dropped span totals over every
// shard's rings (both zero with tracing off).
func (c *Cluster) TraceCounts() (recorded, dropped int64) {
	for _, sh := range c.all() {
		r, d := sh.TraceCounts()
		recorded += r
		dropped += d
	}
	return recorded, dropped
}

// WriteTrace exports the cluster's merged timeline as one Chrome-trace
// process per shard ("shard 0", "shard 1", ...), each carrying that
// shard's lifecycle spans and device command tracks. It returns
// ErrTraceDisabled when no shard was built with tracing.
func (c *Cluster) WriteTrace(w io.Writer) error {
	var procs []obs.Process
	for i, sh := range c.all() {
		if p, ok := sh.TraceProcess(fmt.Sprintf("shard %d", i)); ok {
			procs = append(procs, p)
		}
	}
	if len(procs) == 0 {
		return ErrTraceDisabled
	}
	return obs.WriteChromeTrace(w, procs)
}
