// Package obs is the observability layer of the scheduler stack: a
// span-based job-lifecycle tracer recording into bounded per-worker
// ring buffers, a Chrome-trace-event/Perfetto exporter that merges
// scheduler spans with the simulated device's command timelines, and a
// small typed metrics registry (counters, gauges, histograms) backing
// the scheduler's Stats plumbing.
//
// The tracer is built so the scheduler's hot path pays nothing when
// tracing is off (the knob gates every span site) and no allocation
// when it is on: rings are preallocated at construction and recording
// copies one fixed-size Span under a per-ring mutex, dropping the
// oldest span once the ring is full.
package obs

import "sync"

// Span is one traced interval of a job's (or batch's) life. Start/End
// are simulated seconds on the owning backend's clock — the timeline
// the exporter lays tracks out on — while WallStart/WallEnd carry the
// host wall clock (UnixNano) for correlating simulated activity with
// real elapsed time. All string fields are expected to be static or
// interned by the caller, so recording a Span allocates nothing.
type Span struct {
	Track string  // timeline row ("submit", "worker 3", "queue interactive", ...)
	Name  string  // event label ("exec", "h2d", "mul_relin_rs", ...)
	Cat   string  // category ("admit", "queue", "xfer", "exec", "step", "settle")
	Class string  // QoS class name, "" when not class-attributed
	Start float64 // simulated seconds
	End   float64 // simulated seconds
	Wall  int64   // host wall clock at End (UnixNano); 0 when not stamped
	Batch int64   // batch sequence number, 0 when not batch-attributed
	Jobs  int     // jobs covered by the span (batch spans), 0 otherwise
}

// Ring is a bounded drop-oldest span buffer. One ring per producer
// (worker, dispatcher, submit path) keeps recording contention-free in
// steady state; Snapshot is the only cross-thread reader.
type Ring struct {
	mu      sync.Mutex
	buf     []Span
	next    int // overwrite position once full
	full    bool
	dropped int64
}

// NewRing creates a ring holding up to cap spans (minimum 1).
func NewRing(cap int) *Ring {
	if cap < 1 {
		cap = 1
	}
	return &Ring{buf: make([]Span, 0, cap)}
}

// Record appends a span, overwriting the oldest one once the ring is
// full. It never allocates: the backing array is preallocated.
func (r *Ring) Record(sp Span) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, sp)
	} else {
		r.full = true
		r.buf[r.next] = sp
		r.next = (r.next + 1) % len(r.buf)
		r.dropped++
	}
	r.mu.Unlock()
}

// Snapshot copies the ring's live spans in recording order and reports
// how many older spans were dropped to make room.
func (r *Ring) Snapshot() (spans []Span, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Span(nil), r.buf...), r.dropped
	}
	spans = make([]Span, 0, len(r.buf))
	spans = append(spans, r.buf[r.next:]...)
	spans = append(spans, r.buf[:r.next]...)
	return spans, r.dropped
}

// Len returns the number of live spans.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Tracer owns one ring per producer. Ring indices are assigned by the
// scheduler (submit path, dispatcher, then one per worker).
type Tracer struct {
	rings []*Ring
}

// NewTracer creates a tracer with n rings of spanCap spans each.
func NewTracer(n, spanCap int) *Tracer {
	t := &Tracer{rings: make([]*Ring, n)}
	for i := range t.rings {
		t.rings[i] = NewRing(spanCap)
	}
	return t
}

// Ring returns producer i's ring.
func (t *Tracer) Ring(i int) *Ring { return t.rings[i] }

// Spans snapshots every ring, concatenated in ring order.
func (t *Tracer) Spans() []Span {
	var out []Span
	for _, r := range t.rings {
		spans, _ := r.Snapshot()
		out = append(out, spans...)
	}
	return out
}

// Counts reports the live and dropped span totals across all rings.
func (t *Tracer) Counts() (recorded, dropped int64) {
	for _, r := range t.rings {
		r.mu.Lock()
		recorded += int64(len(r.buf))
		dropped += r.dropped
		r.mu.Unlock()
	}
	return recorded, dropped
}
