// Tracing: demonstrates the observability subsystem on a mixed-QoS
// cluster workload. A stream of interactive, batch, and background
// jobs runs across two simulated GPUs with span tracing enabled; the
// program then exports the merged job-lifecycle + device timeline as
// Chrome-trace JSON (load it at https://ui.perfetto.dev) and prints
// the always-on metrics registry — queueing-delay and service-time
// histograms per class, transfer byte counters, worker idle/stall
// attribution — as a text dump. Tracing only reads the simulated
// clocks, so results and simulated timings are bit-identical to an
// untraced run.
package main

import (
	"fmt"
	"os"

	"xehe"
)

func main() {
	params := xehe.NewParameters(xehe.ParamsDemo())
	kit := xehe.GenerateKeys(params, 42, 1)

	v := make([]complex128, params.Slots())
	for i := range v {
		v[i] = complex(0.3, 0.05)
	}
	cta, ctb := kit.Encrypt(v), kit.Encrypt(v)

	// Two shards, tracing on. The span rings are bounded (drop-oldest),
	// so a long-running service can leave tracing enabled and still
	// export a recent window on demand.
	cl := xehe.NewCluster(params, kit,
		[]xehe.DeviceKind{xehe.Device1, xehe.Device1},
		xehe.ClusterConfig{
			MaxBatch: 4,
			Trace:    xehe.TraceConfig{Enabled: true},
		})
	defer cl.Close()

	const jobs = 120
	for i := 0; i < jobs; i++ {
		job := xehe.NewJob(cta, ctb)
		r := job.MulRelinRescale(0, 1)
		job.Rotate(r, 1)
		switch {
		case i%5 == 0:
			job.WithClass(xehe.Interactive).WithDeadline(0.010)
		case i%10 == 3:
			job.WithClass(xehe.Background)
		}
		if _, err := cl.Submit(job); err != nil {
			fmt.Fprintf(os.Stderr, "submit %d: %v\n", i, err)
			os.Exit(1)
		}
	}
	cl.Wait()

	// Export the Perfetto-loadable timeline.
	const out = "trace.json"
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := cl.WriteTrace(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	recorded, dropped := cl.TraceCounts()
	fmt.Printf("wrote %s: %d spans recorded (%d dropped) — open in https://ui.perfetto.dev\n\n",
		out, recorded, dropped)

	// The metrics registry is always on (tracing or not); the cluster
	// snapshot merges per-shard registries, recomputing histogram
	// quantiles over the union of the buckets.
	fmt.Println("metrics:")
	if err := cl.Metrics().WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
