// Encrypted dot product: a privacy-preserving inner product using the
// classic CKKS rotate-and-add reduction — the access pattern behind the
// private machine-learning inference workloads the paper's introduction
// motivates. Exercises multiply, relinearize, rescale and a logarithmic
// chain of Galois rotations, expressed as a job graph on a
// heterogeneous cluster: one producer job forms the element-wise
// product, and each reduction round is a consumer job taking the
// previous round's output through InputFrom — the partial sums stay
// device-resident, so only the final round's result crosses PCIe.
package main

import (
	"fmt"
	"math/rand"

	"xehe"
)

func main() {
	params := xehe.NewParameters(xehe.ParamsDemo())

	// Galois keys for the power-of-two rotation ladder.
	const width = 8 // reduce over the first 8 slots
	rotations := []int{}
	for k := 1; k < width; k <<= 1 {
		rotations = append(rotations, k)
	}
	kit := xehe.GenerateKeys(params, 5, rotations...)

	cl := xehe.NewCluster(params, kit,
		[]xehe.DeviceKind{xehe.Device1, xehe.Device2},
		xehe.ClusterConfig{})
	defer cl.Close()

	// Two private vectors, padded into the slot vector.
	rng := rand.New(rand.NewSource(9))
	a := make([]complex128, params.Slots())
	b := make([]complex128, params.Slots())
	var want float64
	for i := 0; i < width; i++ {
		x, y := rng.Float64()-0.5, rng.Float64()-0.5
		a[i], b[i] = complex(x, 0), complex(y, 0)
		want += x * y
	}

	// Producer: element-wise product. Its output is never downloaded —
	// the first reduction round consumes it on the device.
	prod := xehe.NewJob(kit.Encrypt(a), kit.Encrypt(b))
	prod.MulRelinRescale(0, 1)
	fut, err := cl.Submit(prod)
	if err != nil {
		panic(err)
	}

	// Rotate-and-add reduction: after log2(w) rounds, slot 0 holds the
	// inner product. Each round is one consumer job chained on the
	// previous round's future; the cluster routes it to the shard that
	// ran the producer, so an edge normally costs zero transfers (an
	// idle shard stealing a round rematerializes through the host —
	// counted in ResidentMisses, results identical either way).
	for k := 1; k < width; k <<= 1 {
		round := xehe.NewJob()
		v := round.InputFrom(fut) // value 0: previous partial sum
		r := round.Rotate(v, k)   // value 1
		round.Add(v, r)           // value 2: this round's output
		if fut, err = cl.Submit(round); err != nil {
			panic(err)
		}
	}

	ct, err := fut.Wait() // only the sink is downloaded
	if err != nil {
		panic(err)
	}
	got := real(kit.Decrypt(ct)[0])

	fmt.Printf("encrypted dot product over %d slots (job graph, %d shards)\n", width, cl.Shards())
	fmt.Printf("  decrypted: %10.6f\n", got)
	fmt.Printf("  expected : %10.6f\n", want)
	fmt.Printf("  |error|  : %10.2e\n", abs(got-want))

	st := cl.Stats()
	fmt.Printf("  graph jobs: %d, resident hits: %d, misses: %d\n",
		st.GraphJobs, st.ResidentHits, st.ResidentMisses)
	fmt.Printf("  H2D %d B, D2H %d B (only inputs up, one result down)\n", st.BytesH2D, st.BytesD2H)
	fmt.Printf("  simulated cluster time: %.3f ms\n", cl.SimulatedSeconds()*1e3)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
