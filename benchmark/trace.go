package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"

	"xehe/internal/gpu"
)

// traceAgg is what the T metrics need from the program's trace: sums
// and counts only, so the totals of one rep are the difference of the
// totals parsed after and before it, whatever the order of the events.
type traceAgg struct {
	family     map[string]float64 // simulated seconds of device commands by kernel family
	computeSec float64            // device commands on the tiles' compute timelines
	copySec    float64            // device commands on the tiles' copy engines
	launches   float64            // commands on the compute timelines
	queueSec   float64            // "pending" spans: a job's residency in its class queue
	queueN     float64
	settleSec  float64 // "settle" spans: a batch's results waiting out their download
	settleN    float64
}

// familyOf maps a device command to its kernel family by name prefix.
func familyOf(name string) string {
	switch {
	case strings.HasPrefix(name, "ntt_"):
		return "ntt"
	case strings.HasPrefix(name, "ks_"):
		return "keyswitch"
	case strings.HasPrefix(name, "memcpy_"):
		return "copy"
	case strings.HasPrefix(name, "he_"), strings.HasPrefix(name, "rs_"),
		strings.HasPrefix(name, "modswitch_"), strings.HasPrefix(name, "galois_"):
		return "elementwise"
	}
	return "other"
}

func (a *traceAgg) command(name string, secs float64, copyEngine bool) {
	if a.family == nil {
		a.family = map[string]float64{}
	}
	a.family[familyOf(name)] += secs
	if copyEngine {
		a.copySec += secs
	} else {
		a.computeSec += secs
		a.launches++
	}
}

// sub returns a - b.
func (a traceAgg) sub(b traceAgg) traceAgg {
	out := a
	out.family = map[string]float64{}
	for k, v := range a.family {
		out.family[k] = v - b.family[k]
	}
	out.computeSec -= b.computeSec
	out.copySec -= b.copySec
	out.launches -= b.launches
	out.queueSec -= b.queueSec
	out.queueN -= b.queueN
	out.settleSec -= b.settleSec
	out.settleN -= b.settleN
	return out
}

// metrics turns the totals of one rep into its T metrics. tileSeconds
// is the rep's simulated makespan summed over the tiles it ran on.
func (a traceAgg) metrics(ops, tileSeconds float64) map[string]float64 {
	var total float64
	for _, v := range a.family {
		total += v
	}
	return map[string]float64{
		"core.sim_share.ntt":         ratio(a.family["ntt"], total),
		"core.sim_share.elementwise": ratio(a.family["elementwise"], total),
		"core.sim_share.keyswitch":   ratio(a.family["keyswitch"], total),
		"core.sim_share.copy":        ratio(a.family["copy"], total),
		"core.launches_per_op":       ratio(a.launches, ops),
		"gpu.tile_busy_share":        ratio(a.computeSec, tileSeconds),
		"gpu.copy_busy_share":        ratio(a.copySec, tileSeconds),
		"sched.queue_sim_ms":         ratio(a.queueSec, a.queueN) * 1e3,
		"sched.settle_sim_ms":        ratio(a.settleSec, a.settleN) * 1e3,
	}
}

// parseChromeTrace reads the Chrome-trace-event JSON that
// Service.WriteTrace and Cluster.WriteTrace produce. Device commands
// carry cat "device" and sit on tracks named "tile<T> compute" or
// "tile<T> copy"; timestamps and durations are simulated microseconds.
func parseChromeTrace(r io.Reader) (traceAgg, error) {
	var file struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Cat  string  `json:"cat"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	var agg traceAgg
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return agg, err
	}
	type track struct{ pid, tid int }
	copyTrack := map[track]bool{}
	for _, ev := range file.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			copyTrack[track{ev.Pid, ev.Tid}] = strings.HasSuffix(ev.Args.Name, " copy")
		}
	}
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		secs := ev.Dur / 1e6
		switch {
		case ev.Cat == "device":
			agg.command(ev.Name, secs, copyTrack[track{ev.Pid, ev.Tid}])
		case ev.Cat == "queue" && ev.Name == "pending":
			agg.queueSec += secs
			agg.queueN++
		case ev.Cat == "settle":
			agg.settleSec += secs
			agg.settleN++
		}
	}
	return agg, nil
}

// addDeviceTrace folds a device's own command log (gpu.Device.Trace)
// into the totals, for the workloads that run without a scheduler.
func (a *traceAgg) addDeviceTrace(dev *gpu.Device) {
	for _, e := range dev.Trace() {
		a.command(e.Name, dev.Seconds(e.End-e.Start), e.Copy)
	}
}

// writeDeviceTraces stores the devices' command logs as JSON.
func writeDeviceTraces(w io.Writer, devs map[string]*gpu.Device) error {
	type entry struct {
		Name    string  `json:"name"`
		Tile    int     `json:"tile"`
		Copy    bool    `json:"copy"`
		StartUS float64 `json:"start_us"`
		EndUS   float64 `json:"end_us"`
	}
	out := map[string][]entry{}
	for name, dev := range devs {
		for _, e := range dev.Trace() {
			out[name] = append(out[name], entry{e.Name, e.Tile, e.Copy, dev.Seconds(e.Start) * 1e6, dev.Seconds(e.End) * 1e6})
		}
	}
	return json.NewEncoder(w).Encode(out)
}

// writeTraceFile stores a workload's program trace in dir through write.
func writeTraceFile(dir, workload string, write func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
