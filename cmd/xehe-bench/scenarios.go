package main

import (
	"fmt"
	"slices"

	"xehe"
)

// d1 is n Device1s.
func d1(n int) []xehe.DeviceKind { return slices.Repeat([]xehe.DeviceKind{xehe.Device1}, n) }

var warmed = xehe.ClusterConfig{WarmBuffers: 32}

// qosConfig is the 2x Device1 shape of the mixed and trace sweeps:
// workers pull each batch when they can start it, which keeps the
// dispatch decision late (a job committed to a worker is beyond the
// policy's reach); the deep pending pool is where the policy reorders.
// A nil policy is the default, WFQ.
func qosConfig(policy xehe.SchedPolicy, trace bool) xehe.ClusterConfig {
	return xehe.ClusterConfig{
		WarmBuffers: 32, Policy: policy, MaxBatch: 4, PendingCap: 512,
		Trace: xehe.TraceConfig{Enabled: trace},
	}
}

// serviceVariants is one Service (a one-shard cluster) per device kind
// and pool size. Workers pin round-robin to tiles, so the sweep extends
// the paper's explicit dual-tile submission (Fig. 14b) from one split
// kernel to many independent jobs.
func serviceVariants() (vs []variant) {
	for _, dev := range []struct {
		kind   xehe.DeviceKind
		config string
	}{{xehe.Device1, "Device1 (2 tiles)"}, {xehe.Device2, "Device2 (1 tile)"}} {
		for _, workers := range []int{1, 2, 4, 8} {
			vs = append(vs, variant{
				config: dev.config, devs: []xehe.DeviceKind{dev.kind},
				cfg: xehe.ServiceConfig{Workers: workers}, stream: uniform,
			})
		}
	}
	return vs
}

// chaosVariant is the uniform stream over three Device1 shards on three
// nodes, under the self-healing supervisor with one warm standby or
// under none, with a drill a quarter of the way in.
func chaosVariant(config string, selfHeal bool, drill func(*xehe.Cluster), check func(r, first *pass) (string, error)) variant {
	cfg := xehe.ClusterConfig{WarmBuffers: 32, Nodes: []xehe.NodeSpec{{Node: 0}, {Node: 1}, {Node: 2}}}
	if selfHeal {
		cfg.SelfHeal, cfg.Standbys = true, 1
	}
	return variant{config: config, devs: d1(3), cfg: cfg, stream: uniform, drill: drill, check: check}
}

// killed checks a kill drill (which is why a drill returns nothing):
// one shard died, the recovery path under test ran once, and a shard
// beyond the original three is healthy and was routed work. The last is the structural fact the old throughput
// floors stood for — capacity came back — and a lost replacement reads 0
// on every run, where the ratio read "about 73 %" on most.
func killed(how string, recovered func(xehe.ClusterStats) int64) func(r, first *pass) (string, error) {
	return func(r, _ *pass) (string, error) {
		if r.d.Killed != 1 || recovered(r.d) != 1 {
			return "", fmt.Errorf("drill did not run: killed %d, %s %d, want 1 and 1", r.d.Killed, how, recovered(r.d))
		}
		for i := 3; i < len(r.d.Routed); i++ {
			if r.d.Health[i] == "ok" && r.d.Routed[i] > 0 {
				return "killed 1, " + how + " 1, replacement healthy and routed work", nil
			}
		}
		return "", fmt.Errorf("no replacement shard serving after the kill: health %v, routed %v", r.d.Health, r.d.Routed)
	}
}

// scenarios is every serving sweep, in the order -sweep all runs them.
var scenarios = []scenario{
	{
		name:     "service",
		variants: serviceVariants(),
		fill:     func(row *result, r *pass) { row.Batches, row.Coalesced = r.d.Batches, r.d.Coalesced },
	},
	{
		// Throughput is against the busiest shard's simulated timeline:
		// the cluster's wall clock when every device runs in parallel.
		name: "cluster",
		variants: []variant{
			{config: "1x Device1", devs: d1(1), cfg: warmed, stream: uniform},
			{config: "2x Device1", devs: d1(2), cfg: warmed, stream: uniform},
			{config: "4x Device1", devs: d1(4), cfg: warmed, stream: uniform},
			{config: "Device1 + Device2", devs: []xehe.DeviceKind{xehe.Device1, xehe.Device2}, cfg: warmed, stream: uniform},
		},
		fill: func(row *result, r *pass) {
			row.Batches, row.Coalesced, row.Routed, row.Stolen = r.d.Batches, r.d.Coalesced, r.d.Routed, r.d.Stolen
		},
	},
	{
		// The class-blind FIFO baseline against WFQ: per-class latency,
		// deadline hits and sheds.
		name: "mixed",
		variants: []variant{
			{config: "fifo", devs: d1(2), cfg: qosConfig(xehe.PolicyFIFO, false), stream: mixed},
			{config: "wfq", devs: d1(2), cfg: qosConfig(xehe.PolicyWFQ, false), stream: mixed},
		},
		perClass: true,
	},
	{
		// Host round-trips against device-resident edges on one Device1,
		// whose gathered transfers count every byte over PCIe.
		name: "graph",
		variants: []variant{
			{config: "chained", devs: d1(1), cfg: warmed, stream: chains(false)},
			{config: "graph", devs: d1(1), cfg: warmed, stream: chains(true),
				check: func(r, first *pass) (string, error) {
					moved, base := r.d.BytesH2D+r.d.BytesD2H, first.d.BytesH2D+first.d.BytesD2H
					if moved >= base {
						return "", fmt.Errorf("moved %d bytes over PCIe, host round-trips %d: want strictly fewer", moved, base)
					}
					return fmt.Sprintf("graph mode moved %.1f MB over PCIe against %.1f MB chained", float64(moved)/1e6, float64(base)/1e6), nil
				}},
		},
		identical: true,
		fill: func(row *result, r *pass) {
			row.Batches, row.BytesH2D, row.BytesD2H = r.d.Batches, r.d.BytesH2D, r.d.BytesD2H
			row.GraphJobs, row.ResidentHits, row.ResidentMisses = r.d.GraphJobs, r.d.ResidentHits, r.d.ResidentMisses
		},
	},
	{
		// Span recording only reads the simulated clocks; the host rates
		// of the two rows bracket what recording costs.
		name: "trace",
		variants: []variant{
			{config: "off", devs: d1(2), cfg: qosConfig(nil, false), stream: mixed},
			{config: "on", devs: d1(2), cfg: qosConfig(nil, true), stream: mixed},
		},
		fill: func(row *result, r *pass) { row.Spans, row.SpansDropped = r.spans, r.dropped },
	},
	{
		// Replay, promotion and drain are timing events, never value
		// events: every job of every run has the first no-fault run's bits.
		name: "chaos",
		variants: []variant{
			chaosVariant("no-fault", false, nil, nil),
			// Cold: fail-stop a shard mid-stream (in-flight batches
			// surrender and replay elsewhere), then scale back up on a
			// brand-new failure domain.
			chaosVariant("kill+addshard", false, func(cl *xehe.Cluster) {
				cl.Faults().KillShard(0)
				cl.AddShard(xehe.Device1, xehe.NodeSpec{Node: 3}) // a failure reads "added 0" below
			}, killed("added", func(st xehe.ClusterStats) int64 { return st.Added })),
			// Same kill, no manual recovery: the supervisor promotes its
			// warm standby inside the kill itself.
			chaosVariant("kill+selfheal", true, func(cl *xehe.Cluster) { cl.Faults().KillShard(0) },
				killed("standby promoted", func(st xehe.ClusterStats) int64 { return st.StandbyPromoted })),
			// Graceful: queued work hands off as-is, in-flight work
			// settles in place.
			chaosVariant("drain", false, func(cl *xehe.Cluster) { cl.DrainShard(0) },
				func(r, _ *pass) (string, error) {
					if r.d.Replayed != 0 || r.d.Killed != 0 {
						return "", fmt.Errorf("a drain must not replay or kill: replayed %d, killed %d", r.d.Replayed, r.d.Killed)
					}
					return "drain replayed 0, killed 0", nil
				}),
		},
		reps:      3,
		identical: true,
		fill: func(row *result, r *pass) {
			batch := r.d.PerClass[xehe.Batch]
			row.Batches, row.Stolen, row.P50Ms, row.P99Ms = r.d.Batches, r.d.Stolen, batch.P50*1e3, batch.P99*1e3
			row.KilledShards, row.RecoveredJobs, row.ReplayedJobs, row.AddedShards = r.d.Killed, r.d.Recovered, r.d.Replayed, r.d.Added
			row.StandbyPromotions, row.DrainedJobs, row.MigratedResidents, row.RetryAttempts = r.d.StandbyPromoted, r.d.Drained, r.d.Migrated, r.d.RetryAttempts
		},
	},
}
