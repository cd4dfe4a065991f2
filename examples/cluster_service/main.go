// Cluster service: demonstrates the xehe.Cluster multi-device router —
// the functional form of the paper's multi-GPU/heterogeneous future
// work. Independent HE jobs submitted from several goroutines are
// sharded across simulated devices, each shard a full scheduler with
// its own worker pool, tile queues, buffer cache and replicated keys;
// the router's weighted least-loaded policy sends the big 2-tile
// Device1 proportionally more work than the small Device2. The second
// half drives the failure-domain API: a shard is fail-stopped mid-stream
// and replaced, another is drained, and every job still completes.
package main

import (
	"fmt"
	"math/cmplx"
	"sync"
	"time"

	"xehe"
)

func main() {
	params := xehe.NewParameters(xehe.ParamsDemo())
	kit := xehe.GenerateKeys(params, 42, 1, 2)

	a := make([]complex128, params.Slots())
	b := make([]complex128, params.Slots())
	for i := range a {
		a[i] = complex(0.4, 0.1)
		b[i] = complex(-0.2, 0.3)
	}
	cta, ctb := kit.Encrypt(a), kit.Encrypt(b)

	const jobs = 96
	const clients = 4

	layouts := []struct {
		name string
		devs []xehe.DeviceKind
	}{
		{"1x Device1", []xehe.DeviceKind{xehe.Device1}},
		{"2x Device1", []xehe.DeviceKind{xehe.Device1, xehe.Device1}},
		{"Device1 + Device2 (heterogeneous)", []xehe.DeviceKind{xehe.Device1, xehe.Device2}},
	}

	// Three job shapes, round-robin; any shard may run any job and
	// the results are identical regardless of routing.
	build := func(i int) *xehe.Job {
		switch i % 3 {
		case 0:
			j := xehe.NewJob(cta, ctb)
			r := j.MulRelinRescale(0, 1)
			j.Rotate(r, 1)
			return j
		case 1:
			j := xehe.NewJob(cta)
			j.SquareRelinRescale(0)
			return j
		default:
			j := xehe.NewJob(cta, ctb)
			s := j.Add(0, 1)
			j.Rotate(s, 2)
			return j
		}
	}

	for _, l := range layouts {
		cl := xehe.NewCluster(params, kit, l.devs, xehe.ClusterConfig{WarmBuffers: 16})

		futs := make([]*xehe.Pending, jobs)
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < jobs; i += clients {
					fut, err := cl.Submit(build(i))
					if err != nil {
						panic(err)
					}
					futs[i] = fut
				}
			}(c)
		}
		wg.Wait()
		cl.Wait()
		wall := time.Since(start)

		// Spot-check one result of each shape against the plaintext.
		for i := 0; i < 3; i++ {
			ct, err := futs[i].Wait()
			if err != nil {
				panic(err)
			}
			got := kit.Decrypt(ct)
			var want func(s int) complex128
			switch i % 3 {
			case 0:
				want = func(s int) complex128 { return a[(s+1)%len(a)] * b[(s+1)%len(a)] }
			case 1:
				want = func(s int) complex128 { return a[s] * a[s] }
			default:
				want = func(s int) complex128 { return a[(s+2)%len(a)] + b[(s+2)%len(a)] }
			}
			for s := range got {
				if cmplx.Abs(got[s]-want(s)) > 1e-3 {
					panic(fmt.Sprintf("job %d slot %d: %v, want %v", i, s, got[s], want(s)))
				}
			}
		}

		st := cl.Stats()
		fmt.Printf("%-34s %d jobs in %v wall (%.0f sim-jobs/sec); routed %v; %d batches (%d coalesced); cache %d hits / %d misses\n",
			l.name, st.Jobs, wall.Round(time.Millisecond),
			float64(st.Jobs)/cl.SimulatedSeconds(), st.Routed, st.Batches, st.Coalesced,
			st.CacheHits, st.CacheMisses)
		cl.Close()
	}
	fmt.Println("\nall decrypted results match the plaintext model, on every layout ✓")

	// Failure domains: three Device1 shards, each on its own node. A
	// third of the way in shard 0 is fail-stopped — its queued jobs
	// re-route (Recovered), its in-flight ones are surrendered and
	// re-executed on a healthy shard (Replayed) — and a replacement is
	// added on a new node. Two thirds in shard 1 is retired gracefully:
	// its queue hands off as-is (Drained) and nothing replays.
	cl := xehe.NewCluster(params, kit, []xehe.DeviceKind{xehe.Device1, xehe.Device1, xehe.Device1},
		xehe.ClusterConfig{WarmBuffers: 16, Nodes: []xehe.NodeSpec{{Node: 0}, {Node: 1}, {Node: 2}}})
	defer cl.Close()
	futs := make([]*xehe.Pending, jobs)
	for i := range futs {
		switch i {
		case jobs / 3:
			cl.Faults().KillShard(0)
			if _, err := cl.AddShard(xehe.Device1, xehe.NodeSpec{Node: 3}); err != nil {
				panic(err)
			}
		case 2 * jobs / 3:
			cl.DrainShard(1)
		}
		fut, err := cl.Submit(build(i))
		if err != nil {
			panic(err)
		}
		futs[i] = fut
	}
	for i, fut := range futs {
		if _, err := fut.Wait(); err != nil {
			panic(fmt.Sprintf("job %d lost to the drills: %v", i, err))
		}
	}
	st := cl.Stats()
	fmt.Printf("\nkill + AddShard + DrainShard mid-stream: %d/%d jobs completed, %d failed; killed %d, recovered %d, replayed %d, added %d, drained %d; health %v, routed %v\n",
		st.Jobs, jobs, st.Failed, st.Killed, st.Recovered, st.Replayed, st.Added, st.Drained, st.Health, st.Routed)
}
