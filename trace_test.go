package xehe

import (
	"bytes"
	"encoding/json"
	"testing"
)

// chromeTraceFile mirrors the Chrome-trace-event JSON schema WriteTrace
// emits, for schema sanity checks.
type chromeTraceFile struct {
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

// TestClusterTraceExport is the end-to-end trace-schema test: a mixed-
// QoS stream through a 2x Device1 cluster with tracing on must export
// parseable Chrome-trace JSON whose per-track timestamps are monotone,
// with both compute and copy device tracks populated (the workers'
// gathered transfers ride the copy engines).
func TestClusterTraceExport(t *testing.T) {
	params := NewParameters(ParamsDemo())
	kit := GenerateKeys(params, 11, 1)
	v := make([]complex128, params.Slots())
	for i := range v {
		v[i] = complex(0.25, 0.1)
	}
	cta, ctb := kit.Encrypt(v), kit.Encrypt(v)

	cl := NewCluster(params, kit, []DeviceKind{Device1, Device1}, ClusterConfig{
		MaxBatch: 4,
		Trace:    TraceConfig{Enabled: ToggleOn},
	})
	defer cl.Close()

	const jobs = 40
	for i := 0; i < jobs; i++ {
		job := NewJob(cta, ctb)
		r := job.MulRelinRescale(0, 1)
		job.Rotate(r, 1)
		switch i % 5 {
		case 0:
			job.WithClass(Interactive).WithDeadline(0.1)
		case 1:
			job.WithClass(Background)
		}
		if _, err := cl.Submit(job); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	cl.Wait()

	var buf bytes.Buffer
	if err := cl.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var trace chromeTraceFile
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	// Track names arrive via thread_name metadata; spans as X events.
	trackName := map[[2]int]string{}
	for _, e := range trace.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			trackName[[2]int{e.Pid, e.Tid}] = e.Args["name"].(string)
		}
	}
	lastTs := map[[2]int]float64{}
	spansOn := map[string]int{}
	for _, e := range trace.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		key := [2]int{e.Pid, e.Tid}
		if prev, ok := lastTs[key]; ok && e.Ts < prev {
			t.Fatalf("track %q: timestamps not monotone (%g after %g)", trackName[key], e.Ts, prev)
		}
		lastTs[key] = e.Ts
		if e.Dur < 0 {
			t.Fatalf("track %q: negative duration %g", trackName[key], e.Dur)
		}
		spansOn[trackName[key]]++
	}
	var compute, copies, workers, queues int
	for name, n := range spansOn {
		switch {
		case len(name) > 7 && name[len(name)-7:] == "compute":
			compute += n
		case len(name) > 4 && name[len(name)-4:] == "copy":
			copies += n
		case len(name) > 6 && name[:6] == "worker":
			workers += n
		case len(name) > 5 && name[:5] == "queue":
			queues += n
		}
	}
	if compute == 0 {
		t.Error("no device compute spans in the trace")
	}
	if copies == 0 {
		t.Error("no copy-engine spans in the trace (batch transfers ride the copy engines)")
	}
	if workers == 0 || queues == 0 {
		t.Errorf("lifecycle tracks empty: worker spans=%d queue spans=%d", workers, queues)
	}
	if spansOn["submit"] == 0 {
		t.Error("no admission spans on the submit track")
	}

	rec, dropped := cl.TraceCounts()
	if rec == 0 {
		t.Fatal("TraceCounts reports no recorded spans")
	}
	t.Logf("trace: %d events, %d spans recorded (%d dropped), %d compute / %d copy device spans",
		len(trace.TraceEvents), rec, dropped, compute, copies)
}

// TestServiceMetricsSurface pins the public metrics surface: the
// registry is always on, the snapshot marshals to JSON, text dumps
// render, and jobs_completed mirrors Stats.Jobs.
func TestServiceMetricsSurface(t *testing.T) {
	params := NewParameters(ParamsDemo())
	kit := GenerateKeys(params, 13, 1)
	v := make([]complex128, params.Slots())
	svc := NewService(params, kit, Device2, ServiceConfig{Workers: 2})
	defer svc.Close()

	const jobs = 6
	for i := 0; i < jobs; i++ {
		job := NewJob(kit.Encrypt(v))
		job.SquareRelinRescale(0)
		if _, err := svc.Submit(job); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	svc.Wait()

	m := svc.Metrics()
	in, ok := m.Get("sched.jobs_completed")
	if !ok || int64(in.Value) != svc.Stats().Jobs {
		t.Fatalf("jobs_completed = %+v (ok=%v), want %d", in, ok, svc.Stats().Jobs)
	}
	if _, err := json.Marshal(m); err != nil {
		t.Fatalf("metrics snapshot must marshal to JSON: %v", err)
	}
	var buf bytes.Buffer
	if err := m.WriteText(&buf); err != nil || buf.Len() == 0 {
		t.Fatalf("WriteText: %v (%d bytes)", err, buf.Len())
	}

	// Tracing was never enabled: WriteTrace must refuse.
	if err := svc.WriteTrace(&buf); err != ErrTraceDisabled {
		t.Fatalf("WriteTrace on untraced service = %v, want ErrTraceDisabled", err)
	}
}
