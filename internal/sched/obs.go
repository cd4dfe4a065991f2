package sched

// Observability wiring: the scheduler-side half of internal/obs. A
// TraceConfig knob turns on span recording (job-lifecycle spans into
// per-worker ring buffers plus the device's command trace), WriteTrace
// exports the merged timeline as Chrome-trace-event JSON, and a typed
// metrics registry runs always-on next to the legacy Stats counters,
// adding the signals Stats never had: queueing-delay vs service-time
// histograms per class, worker idle/stall attribution, pool occupancy
// gauges and steal/reroute counters.
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
	"time"

	"xehe/internal/gpu"
	"xehe/internal/obs"
)

// ErrTraceDisabled is returned by WriteTrace when the scheduler (or
// every shard of a cluster) was built without Config.Trace enabled.
var ErrTraceDisabled = errors.New("sched: tracing disabled (enable Config.Trace.Enabled)")

// TraceConfig tunes span tracing. The zero value keeps tracing off:
// every span site is gated on the resolved knob, so a disabled
// scheduler pays one nil check per site and allocates nothing.
type TraceConfig struct {
	// Enabled turns on span recording and the backing device command
	// trace. Default off.
	Enabled Toggle
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
// goroutines), ring 1 the dispatcher, ring 2+i worker i.
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
	return spanStart{sim: s.backend.SimulatedSeconds(), wall: time.Now().UnixNano(), on: true}
}

// spanEnd closes a span against the current clocks and records it.
func (s *Scheduler) spanEnd(ring *obs.Ring, st spanStart, track, name, cat, class string, batch int64, jobs int) {
	if !st.on {
		return
	}
	ring.Record(obs.Span{
		Track: track, Name: name, Cat: cat, Class: class,
		Start: st.sim, End: s.backend.SimulatedSeconds(),
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

// recordSpan records a fully formed span (both edges already known).
func (s *Scheduler) recordSpan(ring *obs.Ring, sp obs.Span) {
	if s.tracer == nil {
		return
	}
	ring.Record(sp)
}

// className interns the class's name for span attribution.
func (s *Scheduler) className(class int) string { return s.classes[class].Name }

// stepTrace threads per-op-chain-step span recording into the chain
// executor (evalChainFusedOn). A nil *stepTrace is the tracing-off
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

// stepTracer returns the worker's step-trace handle (nil when tracing
// is off).
func (w *worker) stepTracer() *stepTrace { return w.tr }

// schedMetrics is the scheduler's typed instrument set. The counters
// mirror the legacy Stats fields at the same accounting sites; the
// histograms and attribution counters are the signals Stats never
// carried. All instruments are atomics, cheap enough to run always-on.
type schedMetrics struct {
	reg *obs.Registry

	jobsCompleted, jobsFailed, jobsRejected *obs.Counter
	batches, coalesced                      *obs.Counter
	fusedBatches, fusedSteps, unfusedSteps  *obs.Counter
	transferBatches, bytesH2D, bytesD2H     *obs.Counter
	stolenIn, stolenOut, surrendered        *obs.Counter
	graphJobs, residentHits, residentMisses *obs.Counter
	idleEmptyNS, stallCopyNS, depParkNS     *obs.Counter
	spanDropped                             *obs.Counter
	queueDelay, serviceTime                 []*obs.Histogram // per class
}

// newSchedMetrics builds the instrument set over the class table and
// registers the occupancy gauges against the backend's pools.
func newSchedMetrics(classes []string, backend Backend) *schedMetrics {
	reg := obs.NewRegistry()
	m := &schedMetrics{
		reg:             reg,
		jobsCompleted:   reg.Counter("sched.jobs_completed"),
		jobsFailed:      reg.Counter("sched.jobs_failed"),
		jobsRejected:    reg.Counter("sched.jobs_rejected"),
		batches:         reg.Counter("sched.batches"),
		coalesced:       reg.Counter("sched.jobs_coalesced"),
		fusedBatches:    reg.Counter("sched.fused_batches"),
		fusedSteps:      reg.Counter("sched.fused_steps"),
		unfusedSteps:    reg.Counter("sched.unfused_steps"),
		transferBatches: reg.Counter("sched.transfer_batches"),
		bytesH2D:        reg.Counter("sched.bytes_h2d"),
		bytesD2H:        reg.Counter("sched.bytes_d2h"),
		stolenIn:        reg.Counter("sched.stolen_in"),
		stolenOut:       reg.Counter("sched.stolen_out"),
		surrendered:     reg.Counter("sched.surrendered_jobs"),
		graphJobs:       reg.Counter("sched.graph_jobs"),
		residentHits:    reg.Counter("sched.resident_hits"),
		residentMisses:  reg.Counter("sched.resident_misses"),
		idleEmptyNS:     reg.Counter("worker.idle_empty_wall_ns"),
		stallCopyNS:     reg.Counter("worker.stall_copy_sim_ns"),
		depParkNS:       reg.Counter("sched.dep_park_sim_ns"),
		spanDropped:     reg.Counter("trace.spans_dropped"),
	}
	for _, name := range classes {
		m.queueDelay = append(m.queueDelay, reg.Histogram("sched.queue_delay_seconds."+name, nil))
		m.serviceTime = append(m.serviceTime, reg.Histogram("sched.service_seconds."+name, nil))
	}
	cache := backend.Cache()
	reg.Gauge("memcache.pinned_buffers", func() float64 { return float64(cache.PinnedCount()) })
	reg.Gauge("memcache.free_buffers", func() float64 { return float64(cache.FreeCount()) })
	reg.Gauge("memcache.used_buffers", func() float64 { return float64(cache.UsedCount()) })
	staging := backend.Staging()
	reg.Gauge("staging.free_buffers", func() float64 { return float64(staging.FreeCount()) })
	reg.Gauge("staging.free_words", func() float64 { return float64(staging.FreeWords()) })
	return m
}

// Metrics snapshots the scheduler's instrument registry: the mirrored
// Stats counters plus per-class queueing-delay and service-time
// histograms, worker idle/stall attribution and pool occupancy gauges.
func (s *Scheduler) Metrics() obs.Snapshot {
	if s.tracer != nil {
		_, dropped := s.tracer.Counts()
		// Keep the drop counter current without double counting.
		s.met.spanDropped.Add(dropped - s.met.spanDropped.Value())
	}
	return s.met.reg.Snapshot()
}

// TraceCounts reports the live and dropped span totals across the
// scheduler's rings (both zero with tracing off).
func (s *Scheduler) TraceCounts() (recorded, dropped int64) {
	if s.tracer == nil {
		return 0, 0
	}
	return s.tracer.Counts()
}

// TraceProcess assembles the scheduler's spans and — when the backend
// is a simulated device — its per-tile compute/copy command timelines
// into one exporter process. Returns false when tracing is off.
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
	if db, ok := s.backend.(interface{ Device() *gpu.Device }); ok {
		dev := db.Device()
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
	}
	return obs.Process{Name: name, Spans: spans, TrackOrder: order}, true
}

// WriteTrace exports the scheduler's merged timeline (lifecycle spans
// plus device command timelines) as Chrome-trace-event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing. It returns
// ErrTraceDisabled when the scheduler was built without tracing.
func (s *Scheduler) WriteTrace(w io.Writer) error {
	p, ok := s.TraceProcess("scheduler")
	if !ok {
		return ErrTraceDisabled
	}
	return obs.WriteChromeTrace(w, []obs.Process{p})
}

// Static track names for the non-worker rings.
const (
	trkSubmit   = "submit"
	trkDispatch = "dispatch"
)

// Metrics merges every shard's instrument snapshot with the cluster's
// own counters (jobs shed cluster-wide, the recovery plane's drained /
// recovered / replayed / retried jobs): counters and histogram buckets
// sum by name, gauges add — so e.g. memcache.pinned_buffers reports the
// cluster total.
func (c *Cluster) Metrics() obs.Snapshot {
	shards := c.all()
	snaps := make([]obs.Snapshot, 0, len(shards)+1)
	for _, sh := range shards {
		snaps = append(snaps, sh.sched.Metrics())
	}
	snaps = append(snaps, c.obsReg.Snapshot())
	return obs.Merge(snaps...)
}

// TraceCounts sums the recorded and dropped span totals over every
// shard's rings (both zero with tracing off).
func (c *Cluster) TraceCounts() (recorded, dropped int64) {
	for _, sh := range c.all() {
		r, d := sh.sched.TraceCounts()
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
		if p, ok := sh.sched.TraceProcess(fmt.Sprintf("shard %d", i)); ok {
			procs = append(procs, p)
		}
	}
	if len(procs) == 0 {
		return ErrTraceDisabled
	}
	return obs.WriteChromeTrace(w, procs)
}
