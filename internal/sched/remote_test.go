package sched

import (
	"testing"

	"xehe/internal/gpu"
)

// newRemoteCluster builds a cluster whose shard i sits behind links[i]
// (the zero NetLink keeps the shard host-local), each shard its own
// failure domain.
func newRemoteCluster(t testing.TB, h *Harness, workers int, links []NetLink, devs ...gpu.DeviceSpec) *Cluster {
	t.Helper()
	specs := shards(devs...)
	for i := range specs {
		specs[i].Link = links[i]
	}
	return newClusterWith(t, h, specs, schedConfig(workers))
}

// TestRemoteHopCostsSimulatedTime pins the tentpole's timing half: the
// same workload on the same device kind takes strictly more simulated
// time behind a network hop than host-local, and the gap grows with
// the latency.
func TestRemoteHopCostsSimulatedTime(t *testing.T) {
	h := sharedHarness(t)
	run := func(link NetLink) float64 {
		c := newRemoteCluster(t, h, 2, []NetLink{link}, gpu.Device1Spec())
		vals := make([]complex128, h.Params.Slots())
		for i := 0; i < 6; i++ {
			j := NewJob(h.Encrypt(vals), h.Encrypt(vals))
			r := j.MulRelinRescale(0, 1)
			j.Rotate(r, 1)
			// One job at a time: under a backlog, which jobs share a
			// batch follows goroutine interleaving, and that moves the
			// clock by more than a 2us hop does.
			fut, err := c.Submit(j)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fut.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		c.Drain()
		return c.SimulatedSeconds()
	}
	local := run(NetLink{})
	slow := run(NetLink{LatencySeconds: 2e-6, GBps: 16})
	slower := run(NetLink{LatencySeconds: 50e-6, GBps: 4})
	if !(local < slow && slow < slower) {
		t.Fatalf("simulated time not ordered by hop cost: local %g, 2us hop %g, 50us hop %g",
			local, slow, slower)
	}
}
