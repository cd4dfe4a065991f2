package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRingDropOldest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(Span{Name: "s", Start: float64(i)})
	}
	spans, dropped := r.Snapshot()
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	if len(spans) != 4 {
		t.Fatalf("len = %d, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := float64(6 + i); sp.Start != want {
			t.Fatalf("span %d: Start = %g, want %g (oldest must drop first)", i, sp.Start, want)
		}
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(8)
	r.Record(Span{Start: 1})
	r.Record(Span{Start: 2})
	spans, dropped := r.Snapshot()
	if dropped != 0 || len(spans) != 2 || spans[0].Start != 1 || spans[1].Start != 2 {
		t.Fatalf("partial snapshot wrong: %v dropped=%d", spans, dropped)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
}

func TestRingConcurrentRecord(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(Span{Start: float64(i)})
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	spans, dropped := r.Snapshot()
	if got := int64(len(spans)) + dropped; got != 4000 {
		t.Fatalf("recorded+dropped = %d, want 4000", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{0.001, 0.01, 0.1, 1})
	for i := 0; i < 90; i++ {
		h.Observe(0.005) // second bucket (le 0.01)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5) // fourth bucket (le 1)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 90*0.005+10*0.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	in, ok := reg.Snapshot().Get("lat")
	if !ok {
		t.Fatal("instrument missing from snapshot")
	}
	if p50 := in.Quantile(0.50); p50 != 0.01 {
		t.Fatalf("p50 = %g, want bucket bound 0.01", p50)
	}
	if p99 := in.Quantile(0.99); p99 != 1 {
		t.Fatalf("p99 = %g, want bucket bound 1", p99)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", []float64{1, 2})
	h.Observe(100) // overflow
	in, _ := reg.Snapshot().Get("h")
	if got := in.Buckets[len(in.Buckets)-1].Count; got != 1 {
		t.Fatalf("overflow count = %d", got)
	}
	// Quantile must report the last finite bound, never +Inf.
	if q := in.Quantile(0.99); math.IsInf(q, 1) || q != 2 {
		t.Fatalf("overflow quantile = %g, want 2", q)
	}
	// And the snapshot must survive encoding/json despite the +Inf bound.
	b, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !strings.Contains(string(b), `"+Inf"`) {
		t.Fatalf("overflow bound not serialized as string: %s", b)
	}
}

func TestRegistryIdempotentAndOrdered(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("a")
	if reg.Counter("a") != a {
		t.Fatal("same name must return the same counter")
	}
	reg.Gauge("g", func() float64 { return 7 })
	reg.Counter("b").Add(3)
	a.Add(1)
	s := reg.Snapshot()
	names := make([]string, len(s.Instruments))
	for i, in := range s.Instruments {
		names[i] = in.Name
	}
	if got, want := strings.Join(names, ","), "a,g,b"; got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
	if g, _ := s.Get("g"); g.Value != 7 {
		t.Fatalf("gauge = %g", g.Value)
	}
}

func TestMerge(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("jobs").Add(10)
	r2.Counter("jobs").Add(5)
	r1.Histogram("lat", []float64{1, 2}).Observe(0.5)
	r2.Histogram("lat", []float64{1, 2}).Observe(1.5)
	r2.Counter("only2").Add(1)
	r1.Max("peak").Observe(3)
	r2.Max("peak").Observe(5)
	r2.Max("peak").Observe(4) // below the mark: ignored
	m := Merge(r1.Snapshot(), r2.Snapshot())
	if in, _ := m.Get("peak"); in.Value != 5 || in.Kind != "max" {
		t.Fatalf("merged max = %+v, want max(3,5)=5 (not a sum)", in)
	}
	if in, _ := m.Get("jobs"); in.Value != 15 {
		t.Fatalf("merged counter = %g, want 15", in.Value)
	}
	if in, _ := m.Get("lat"); in.Count != 2 || in.Buckets[0].Count != 1 || in.Buckets[1].Count != 1 {
		t.Fatalf("merged histogram wrong: %+v", in)
	}
	if _, ok := m.Get("only2"); !ok {
		t.Fatal("instrument present in only one snapshot must survive the merge")
	}
	// Merging must not alias the inputs' bucket slices.
	r1.Histogram("lat", nil).Observe(0.5)
	if in, _ := m.Get("lat"); in.Count != 2 {
		t.Fatal("merge aliased a source snapshot")
	}
}

func TestWithTotals(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("jobs.a").Add(2)
	reg.Counter("jobs.b").Add(3)
	reg.Counter("jobsx.a").Add(100) // not a part of "jobs"
	reg.Max("peak.a").Observe(7)
	reg.Max("peak.b").Observe(4)
	s := reg.Snapshot().WithTotals("jobs", "peak", "absent")
	if in, _ := s.Get("jobs"); in.Value != 5 || in.Kind != "counter" {
		t.Fatalf("derived counter total = %+v, want 5", in)
	}
	if in, _ := s.Get("peak"); in.Value != 7 || in.Kind != "max" {
		t.Fatalf("derived max total = %+v, want max(7,4)=7", in)
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("a total with no parts must be left out")
	}
	if v := s.Values(); v["jobs"] != 5 || v["jobs.b"] != 3 || len(v) != len(s.Instruments) {
		t.Fatalf("Values() = %v", v)
	}
}

func TestWriteTextHistogramLine(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("lat", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "count=1") {
		t.Fatalf("text dump missing histogram count: %q", buf.String())
	}
}

func TestWriteChromeTrace(t *testing.T) {
	procs := []Process{{
		Name:       "p",
		TrackOrder: []string{"first", "second"},
		Spans: []Span{
			{Track: "second", Name: "b", Start: 2, End: 3, Class: "batch", Batch: 7, Jobs: 2},
			{Track: "first", Name: "a", Start: 1, End: 2},
			{Track: "first", Name: "c", Start: 0.5, End: 0.4}, // negative duration clamps to 0
		},
	}}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, procs); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	lastTs := map[[2]int]float64{}
	var xEvents, metaEvents int
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "M":
			metaEvents++
		case "X":
			xEvents++
			key := [2]int{e.Pid, e.Tid}
			if prev, ok := lastTs[key]; ok && e.Ts < prev {
				t.Fatalf("timestamps not monotone on track %v: %g after %g", key, e.Ts, prev)
			}
			lastTs[key] = e.Ts
			if e.Dur < 0 {
				t.Fatalf("event %q has negative duration %g", e.Name, e.Dur)
			}
			if e.Name == "b" {
				if e.Args["class"] != "batch" {
					t.Fatalf("span args lost: %v", e.Args)
				}
			}
		}
	}
	if xEvents != 3 {
		t.Fatalf("X events = %d, want 3", xEvents)
	}
	// process_name + 2 tracks x (thread_name + thread_sort_index).
	if metaEvents != 5 {
		t.Fatalf("metadata events = %d, want 5", metaEvents)
	}
}

func TestTracerCounts(t *testing.T) {
	tr := NewTracer(3, 2)
	tr.Ring(0).Record(Span{})
	tr.Ring(2).Record(Span{})
	tr.Ring(2).Record(Span{})
	tr.Ring(2).Record(Span{}) // overflows ring 2 (cap 2)
	rec, dropped := tr.Counts()
	if rec != 3 || dropped != 1 {
		t.Fatalf("counts = (%d, %d), want (3, 1)", rec, dropped)
	}
	if got := len(tr.Spans()); got != 3 {
		t.Fatalf("Spans() = %d entries, want 3", got)
	}
}
