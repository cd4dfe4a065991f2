// Priority service: demonstrates the QoS subsystem on a mixed-traffic
// cluster — interactive inference chains with simulated-time
// deadlines riding next to bulk batch analytics and best-effort
// background work. The same stream runs once under the class-blind
// FIFO baseline and once under each QoS policy (weighted fair
// queuing, strict priority, earliest deadline first), printing the
// per-class p50/p99 simulated latency and deadline outcomes so the
// effect of the policy is directly visible: interactive tail latency
// collapses while total throughput stays flat.
package main

import (
	"errors"
	"fmt"

	"xehe"
)

func main() {
	params := xehe.NewParameters(xehe.ParamsDemo())
	kit := xehe.GenerateKeys(params, 42, 1)

	a := make([]complex128, params.Slots())
	for i := range a {
		a[i] = complex(0.4, 0.1)
	}
	ct := kit.Encrypt(a)

	const (
		jobs     = 160
		deadline = 0.010 // interactive latency target: 10ms simulated
	)

	// The mixed stream: every 5th job interactive (with a deadline),
	// every 10th background, the rest batch analytics.
	classify := func(i int) (xehe.JobClass, float64) {
		switch {
		case i%5 == 0:
			return xehe.Interactive, deadline
		case i%10 == 3:
			return xehe.Background, 0
		default:
			return xehe.Batch, 0
		}
	}

	policies := []struct {
		name   string
		policy xehe.SchedPolicy
	}{
		{"fifo (baseline)", xehe.PolicyFIFO},
		{"weighted fair queuing", xehe.PolicyWFQ},
		{"strict priority", xehe.PolicyStrictPriority},
		{"earliest deadline first", xehe.PolicyEDF},
	}

	for _, pol := range policies {
		// Workers pull each batch when they can start it, which keeps the
		// dispatch decision late; the deep pending pool is where the
		// policy reorders.
		cl := xehe.NewCluster(params, kit,
			[]xehe.DeviceKind{xehe.Device1, xehe.Device1},
			xehe.ClusterConfig{
				WarmBuffers: 16, Policy: pol.policy,
				MaxBatch: 4, PendingCap: 512,
			})

		shed := 0
		for i := 0; i < jobs; i++ {
			class, dl := classify(i)
			job := xehe.NewJob(ct).WithClass(class).WithDeadline(dl)
			job.SquareRelinRescale(0)
			if _, err := cl.Submit(job); err != nil {
				if errors.Is(err, xehe.ErrOverloaded) {
					shed++ // interactive share full: fail fast by design
					continue
				}
				panic(err)
			}
		}
		cl.Wait()

		st := cl.Stats()
		fmt.Printf("%-24s  total %.0f sim-jobs/s", pol.name, float64(st.Jobs)/cl.SimulatedSeconds())
		if shed > 0 {
			fmt.Printf("  (%d interactive jobs shed)", shed)
		}
		fmt.Println()
		for _, pc := range st.PerClass {
			fmt.Printf("  %-12s %4d jobs   p50 %6.3f ms   p99 %6.3f ms", pc.Name, pc.Completed, pc.P50*1e3, pc.P99*1e3)
			if pc.DeadlineHit+pc.DeadlineMiss > 0 {
				fmt.Printf("   deadlines %d/%d met", pc.DeadlineHit, pc.DeadlineHit+pc.DeadlineMiss)
			}
			fmt.Println()
		}
		fmt.Println()
		cl.Close()
	}
}
