package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// bench runs the real entry point in-process.
func bench(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// rows decodes a sweep's stdout, one JSON object a line, keeping the
// keys as emitted.
func rows(t *testing.T, stdout string) []map[string]any {
	t.Helper()
	var rs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		var r map[string]any
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("stdout line %q is not a JSON row: %v", line, err)
		}
		rs = append(rs, r)
	}
	return rs
}

// The keys every row carries, and the keys a bench's rows may carry on
// top (omitted when zero): the -json rows of the six sweeps this driver
// replaced, key for key.
var (
	always   = []string{"bench", "config", "devices", "jobs", "jobs_per_sec", "sim_jobs_per_sec"}
	optional = map[string][]string{
		"service": {"workers", "batches", "coalesced"},
		"cluster": {"batches", "coalesced", "routed", "stolen"},
		"mixed":   {"class", "p50_sim_ms", "p99_sim_ms", "deadline_hit", "deadline_miss", "rejected"},
		"graph":   {"batches", "bytes_h2d", "bytes_d2h", "graph_jobs", "resident_hits", "resident_misses"},
		"trace":   {"spans", "spans_dropped"},
		"chaos": {"batches", "stolen", "p50_sim_ms", "p99_sim_ms", "killed_shards", "recovered_jobs", "replayed_jobs",
			"added_shards", "standby_promotions", "drained_jobs", "migrated_residents", "retry_attempts"},
	}
)

// TestSweepAll pins the row set of -sweep all (8 service, 4 cluster,
// 2 mixed totals + 3 classes x 2 policies, 2 graph, 2 trace, 4 chaos,
// in that order, with those keys), that -trace writes the tracing-on
// timeline without costing a row, and that every scenario's checks were
// reached. It asserts nothing about a rate or a ratio.
func TestSweepAll(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	code, stdout, stderr := bench(t, "-sweep", "all", "-jobs", "16", "-trace", trace)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	var got []string
	for _, r := range rows(t, stdout) {
		b, _ := r["bench"].(string)
		c, _ := r["config"].(string)
		class, _ := r["class"].(string)
		got = append(got, strings.TrimSuffix(b+"|"+c+"|"+class, "|"))
		for _, k := range always {
			if _, ok := r[k]; !ok {
				t.Errorf("row %s|%s lacks key %q", b, c, k)
			}
		}
		for k := range r {
			if !slices.Contains(always, k) && !slices.Contains(optional[b], k) {
				t.Errorf("row %s|%s has key %q, which the %s rows never had", b, c, k, b)
			}
		}
	}
	var want []string
	for _, dev := range []string{"Device1 (2 tiles)", "Device2 (1 tile)"} {
		want = append(want, slices.Repeat([]string{"service|" + dev}, 4)...)
	}
	want = append(want, "cluster|1x Device1", "cluster|2x Device1", "cluster|4x Device1", "cluster|Device1 + Device2")
	for _, policy := range []string{"fifo", "wfq"} {
		for _, class := range []string{"", "|interactive", "|batch", "|background"} {
			want = append(want, "mixed|"+policy+class)
		}
	}
	want = append(want, "graph|chained", "graph|graph", "trace|off", "trace|on",
		"chaos|no-fault", "chaos|kill+addshard", "chaos|kill+selfheal", "chaos|drain")
	if !slices.Equal(got, want) {
		t.Errorf("rows:\n got %q\nwant %q", got, want)
	}

	if data, err := os.ReadFile(trace); err != nil || !json.Valid(data) {
		t.Errorf("-trace %s: not a JSON timeline (%d bytes, %v)", trace, len(data), err)
	}

	// What each scenario enforced, from its summary line: a check that
	// is never reached leaves its fact out.
	for sweep, facts := range map[string][]string{
		"service": {"accepted = completed, 0 failed"},
		"cluster": {"accepted = completed, 0 failed"},
		"mixed":   {"accepted = completed, 0 failed"},
		"graph":   {"accepted = completed, 0 failed", "outputs bit-identical across runs", "graph mode moved "},
		"trace":   {"accepted = completed, 0 failed"},
		"chaos": {"accepted = completed, 0 failed", "outputs bit-identical across runs",
			"killed 1, added 1, replacement healthy and routed work",
			"killed 1, standby promoted 1, replacement healthy and routed work", "drain replayed 0, killed 0"},
	} {
		i := strings.Index(stderr, "sweep "+sweep+" enforced: ")
		if i < 0 {
			t.Errorf("no summary line for sweep %s in:\n%s", sweep, stderr)
			continue
		}
		line, _, _ := strings.Cut(stderr[i:], "\n")
		for _, fact := range facts {
			if !strings.Contains(line, fact) {
				t.Errorf("sweep %s did not enforce %q: %s", sweep, fact, line)
			}
		}
	}
	if !strings.Contains(stderr, "% of no-fault") {
		t.Errorf("the chaos ratios are no longer gated but must still be printed:\n%s", stderr)
	}
}

// TestSweepGraphCounters pins the deterministic counters of the graph
// sweep at 48 jobs (12 chains of 4): every byte over PCIe, and every
// producer->consumer edge resolved on the device.
func TestSweepGraphCounters(t *testing.T) {
	code, stdout, stderr := bench(t, "-sweep", "graph", "-jobs", "48")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	want := []map[string]float64{
		{"jobs": 48, "bytes_h2d": 13369344, "bytes_d2h": 9437184, "graph_jobs": 0, "resident_hits": 0},
		{"jobs": 48, "bytes_h2d": 6291456, "bytes_d2h": 2359296, "graph_jobs": 36, "resident_hits": 36},
	}
	got := rows(t, stdout)
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d:\n%s", len(got), len(want), stdout)
	}
	for i, w := range want {
		for k, v := range w {
			if g, _ := got[i][k].(float64); g != v { // an omitted key is a zero counter
				t.Errorf("%s row: %s = %v, want %v", got[i]["config"], k, g, v)
			}
		}
	}
}

// TestUsage: an unknown -fig, -tab or -sweep value exits 2 naming the
// valid ones, before anything runs (nothing on stdout).
func TestUsage(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // in stderr
	}{
		{[]string{"-tab", "2"}, "valid: 1"},
		{[]string{"-fig", "11"}, "valid: all, 5, 12, 13, 14a, 14b, 15, 16, 17, 18, 19, scaling"},
		{[]string{"-sweep", "graph,chaoss"}, "valid: all, service, cluster, mixed, graph, trace, chaos"},
		{[]string{"-fig", "12", "-sweep", "nope"}, "unknown sweep"},
		{[]string{"-sweep", "graph", "-jobs", "0"}, "-jobs"},
		{[]string{"-chaos", "30"}, "flag provided but not defined"},
	} {
		code, stdout, stderr := bench(t, tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, %d bytes on stdout, stderr %q; want exit 2, nothing printed, %q named", tc.args, code, len(stdout), stderr, tc.want)
		}
	}
}

// TestTraceNeverSuppressesASweep: -trace alone is the trace sweep, and
// next to other sweeps it adds the trace sweep's rows to theirs.
func TestTraceNeverSuppressesASweep(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	for _, tc := range []struct {
		args []string
		want []string // the rows' bench names
	}{
		{[]string{"-trace", trace}, []string{"trace", "trace"}},
		{[]string{"-trace", trace, "-sweep", "graph"}, []string{"graph", "graph", "trace", "trace"}},
	} {
		code, stdout, stderr := bench(t, append(tc.args, "-jobs", "8")...)
		if code != 0 {
			t.Fatalf("%v: exit %d\n%s", tc.args, code, stderr)
		}
		var got []string
		for _, r := range rows(t, stdout) {
			got = append(got, r["bench"].(string))
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%v: rows %q, want %q", tc.args, got, tc.want)
		}
		if _, err := os.Stat(trace); err != nil {
			t.Errorf("%v: %v", tc.args, err)
		}
		os.Remove(trace)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from xehe-bench's default output")

// TestFigures: xehe-bench's default output — every figure and table of
// the timing-only model — is testdata/figures.golden byte for byte, so
// a change that moves a model number fails here with the rows it moved;
// after a deliberate model change,
// `go test ./cmd/xehe-bench -run TestFigures -update` rewrites the file
// and the move is its diff. -tab 1 is Table I only, the head of that
// output.
func TestFigures(t *testing.T) {
	code, all, _ := bench(t)
	if code != 0 {
		t.Fatalf("no flags: exit %d", code)
	}
	golden := filepath.Join("testdata", "figures.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(all), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if all != string(want) {
		got, exp := strings.Split(all, "\n"), strings.Split(string(want), "\n")
		var diff strings.Builder
		moved := 0
		for i := 0; i < max(len(got), len(exp)); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(exp) {
				w = exp[i]
			}
			if g != w {
				if moved++; moved <= 10 {
					fmt.Fprintf(&diff, "line %d:\n  got  %q\n  want %q\n", i+1, g, w)
				}
			}
		}
		t.Fatalf("output differs from %s on %d of %d lines (go test ./cmd/xehe-bench -run TestFigures -update rewrites it):\n%s",
			golden, moved, len(exp), diff.String())
	}
	code, tab, _ := bench(t, "-tab", "1")
	if code != 0 || tab == "" || !strings.HasPrefix(all, tab) || strings.Contains(tab, "Fig.") {
		t.Errorf("-tab 1: exit %d, %d bytes; want Table I, the head of the all-figures output", code, len(tab))
	}
}
