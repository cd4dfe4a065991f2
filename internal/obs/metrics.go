package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing instrument.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current total.
func (c *Counter) Value() int64 { return c.v.Load() }

// Max is a high-water-mark instrument: it keeps the largest value
// observed, and Merge takes the maximum across registries where every
// other kind adds.
type Max struct{ v atomic.Int64 }

// Observe raises the mark to n if n exceeds it.
func (m *Max) Observe(n int64) {
	for {
		old := m.v.Load()
		if n <= old || m.v.CompareAndSwap(old, n) {
			return
		}
	}
}

// Value returns the largest value observed (0 before the first).
func (m *Max) Value() int64 { return m.v.Load() }

// Histogram is a fixed-bucket distribution instrument. Bucket counts
// and the running sum are atomics, so Observe is lock-free and safe
// from any goroutine.
type Histogram struct {
	bounds []float64      // upper bounds, ascending; +Inf is implicit
	counts []atomic.Int64 // len(bounds)+1: last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// newHistogram builds a histogram over the given ascending upper
// bounds.
func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// ExpBounds returns n exponentially spaced upper bounds starting at
// start and growing by factor — the default shape for latency
// histograms (microseconds to minutes in ~26 buckets).
func ExpBounds(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	b := start
	for i := range out {
		out[i] = b
		b *= factor
	}
	return out
}

// LatencyBounds is the default bucket layout for simulated-seconds
// histograms: 1µs to ~67s in powers of two.
func LatencyBounds() []float64 { return ExpBounds(1e-6, 2, 27) }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bucket is one cumulative-free histogram bucket in a Snapshot: Count
// samples fell at or below LE (math.Inf(1) marks the overflow bucket).
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// MarshalJSON writes the overflow bound as the string "+Inf"
// (encoding/json rejects infinite float64 values).
func (b Bucket) MarshalJSON() ([]byte, error) {
	if math.IsInf(b.LE, 1) {
		return []byte(fmt.Sprintf(`{"le":"+Inf","count":%d}`, b.Count)), nil
	}
	return []byte(fmt.Sprintf(`{"le":%g,"count":%d}`, b.LE, b.Count)), nil
}

// Instrument is one instrument's state in a Snapshot.
type Instrument struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"` // "counter", "max", "gauge" or "histogram"
	Value   float64  `json:"value,omitempty"`
	Count   int64    `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile estimates the q-quantile (0 < q <= 1) of a histogram
// instrument from its buckets, returning each bucket's upper bound as
// the estimate. Returns 0 with no samples.
func (in Instrument) Quantile(q float64) float64 {
	if in.Count == 0 || len(in.Buckets) == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(in.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	est := in.Buckets[0].LE
	for _, b := range in.Buckets {
		if !math.IsInf(b.LE, 1) {
			est = b.LE // overflow mass reports the last finite bound
		}
		cum += b.Count
		if cum >= rank {
			break
		}
	}
	return est
}

// Snapshot is a point-in-time copy of a registry's instruments, in
// registration order. It marshals directly to JSON and prints with
// WriteText.
type Snapshot struct {
	Instruments []Instrument `json:"instruments"`
}

// Get returns the named instrument.
func (s Snapshot) Get(name string) (Instrument, bool) {
	for _, in := range s.Instruments {
		if in.Name == name {
			return in, true
		}
	}
	return Instrument{}, false
}

// Values indexes the snapshot's counter, max and gauge values by name.
func (s Snapshot) Values() map[string]float64 {
	out := make(map[string]float64, len(s.Instruments))
	for _, in := range s.Instruments {
		out[in.Name] = in.Value
	}
	return out
}

// WithTotals returns the snapshot preceded by one derived instrument
// per name: the Merge of the instruments called "<name>.<part>" — their
// sum, or their maximum for kind "max". The parts are the only thing
// written to, so a total and its breakdown agree in every snapshot
// without a lock. A name with no parts is left out.
func (s Snapshot) WithTotals(names ...string) Snapshot {
	var out Snapshot
	for _, name := range names {
		var parts []Snapshot
		for _, in := range s.Instruments {
			if strings.HasPrefix(in.Name, name+".") {
				in.Name = name
				parts = append(parts, Snapshot{Instruments: []Instrument{in}})
			}
		}
		out.Instruments = append(out.Instruments, Merge(parts...).Instruments...)
	}
	out.Instruments = append(out.Instruments, s.Instruments...)
	return out
}

// WriteText dumps the snapshot in a one-instrument-per-line text form
// (histograms report count, sum and estimated p50/p99).
func (s Snapshot) WriteText(w io.Writer) error {
	for _, in := range s.Instruments {
		var err error
		switch in.Kind {
		case "histogram":
			_, err = fmt.Fprintf(w, "%-10s %-46s count=%d sum=%.6g p50=%.6g p99=%.6g\n",
				in.Kind, in.Name, in.Count, in.Sum, in.Quantile(0.50), in.Quantile(0.99))
		default:
			_, err = fmt.Fprintf(w, "%-10s %-46s %.6g\n", in.Kind, in.Name, in.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Merge combines snapshots instrument-by-instrument (matched by name):
// counter and gauge values add, max values take the maximum, histogram
// counts, sums and per-bucket counts add. Instruments keep first-seen
// order, so merging per-shard registries yields a cluster-wide view.
func Merge(snaps ...Snapshot) Snapshot {
	var out Snapshot
	idx := map[string]int{}
	for _, s := range snaps {
		for _, in := range s.Instruments {
			i, ok := idx[in.Name]
			if !ok {
				idx[in.Name] = len(out.Instruments)
				cp := in
				cp.Buckets = append([]Bucket(nil), in.Buckets...)
				out.Instruments = append(out.Instruments, cp)
				continue
			}
			dst := &out.Instruments[i]
			if in.Kind == "max" {
				dst.Value = math.Max(dst.Value, in.Value)
			} else {
				dst.Value += in.Value
			}
			dst.Count += in.Count
			dst.Sum += in.Sum
			for b := range dst.Buckets {
				if b < len(in.Buckets) {
					dst.Buckets[b].Count += in.Buckets[b].Count
				}
			}
		}
	}
	return out
}

// Registry is a set of named instruments. Instrument construction is
// idempotent (the same name returns the same instrument) and
// registration order is preserved in snapshots. A name belongs to one
// kind: asking for it as another panics.
type Registry struct {
	mu     sync.Mutex
	order  []string
	byName map[string]interface{} // *Counter, *Max, *Histogram or func() float64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]interface{}{}}
}

// instrument returns the named instrument, registering mk's on first use.
func (r *Registry) instrument(name string, mk func() interface{}) interface{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	in, ok := r.byName[name]
	if !ok {
		in = mk()
		r.byName[name] = in
		r.order = append(r.order, name)
	}
	return in
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return r.instrument(name, func() interface{} { return &Counter{} }).(*Counter)
}

// Max returns the named high-water mark, creating it on first use.
func (r *Registry) Max(name string) *Max {
	return r.instrument(name, func() interface{} { return &Max{} }).(*Max)
}

// Gauge registers a read-on-snapshot gauge backed by fn (e.g. a pool
// occupancy probe). Re-registering a name replaces its function.
func (r *Registry) Gauge(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; !ok {
		r.order = append(r.order, name)
	}
	r.byName[name] = fn
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (nil selects LatencyBounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return r.instrument(name, func() interface{} {
		if bounds == nil {
			bounds = LatencyBounds()
		}
		return newHistogram(bounds)
	}).(*Histogram)
}

// Snapshot copies every instrument's current state, evaluating gauges.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for _, name := range r.order {
		out := Instrument{Name: name}
		switch in := r.byName[name].(type) {
		case *Counter:
			out.Kind, out.Value = "counter", float64(in.Value())
		case *Max:
			out.Kind, out.Value = "max", float64(in.Value())
		case func() float64:
			out.Kind, out.Value = "gauge", in()
		case *Histogram:
			out.Kind, out.Count, out.Sum = "histogram", in.Count(), in.Sum()
			for i := range in.counts {
				le := math.Inf(1)
				if i < len(in.bounds) {
					le = in.bounds[i]
				}
				out.Buckets = append(out.Buckets, Bucket{LE: le, Count: in.counts[i].Load()})
			}
		}
		s.Instruments = append(s.Instruments, out)
	}
	return s
}
