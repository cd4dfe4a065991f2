// Graph-form matrix multiplication: the same C = A·B workload
// expressed as a scheduler job graph instead of a hand-driven context
// loop. Every element product is one job and every output element one
// accumulator job consuming the products via InputFrom, so the K
// partial products per output never round-trip through the host — they
// stay device-resident until the accumulator takes them. Elements are
// slot-form (NTT-domain) ciphertexts here, matching what the job ops
// operate on; the coefficient-form Run above remains the paper's
// Section IV-E benchmark shape.
package matmul

import (
	"fmt"

	"xehe/internal/ckks"
	"xehe/internal/sched"
)

// RunGraph computes C = A·B as a job graph: per output element (i,j),
// K product jobs MulRelin(A[i][l], B[l][j]) feed one accumulator job
// that sums them through InputFrom edges. Inputs are slot-form
// degree-2 ciphertexts of identical level and scale; outputs are host
// ciphertexts at the same level with scale², downloaded only at the
// graph sinks. The products use MulRelin (no rescale) so the partial
// sums share one scale exactly. The graph runs on one device or sharded
// across several: a one-shard cluster is the former.
func RunGraph(cl *sched.Cluster, A, B [][]*ckks.Ciphertext, w Workload) ([][]*ckks.Ciphertext, error) {
	sinks := make([][]*sched.Future, w.M)
	for i := 0; i < w.M; i++ {
		sinks[i] = make([]*sched.Future, w.N)
		for j := 0; j < w.N; j++ {
			prods := make([]*sched.Future, w.K)
			for l := 0; l < w.K; l++ {
				pj := sched.NewJob(A[i][l], B[l][j])
				pj.MulRelin(0, 1)
				f, err := cl.Submit(pj)
				if err != nil {
					return nil, fmt.Errorf("matmul: product (%d,%d,%d): %w", i, j, l, err)
				}
				prods[l] = f
			}
			if w.K == 1 {
				// Single product: no accumulation needed, the product
				// job is the sink itself (no consumers, so its output
				// downloads normally).
				sinks[i][j] = prods[0]
				continue
			}
			// Register every dependency before the first op: op-result
			// value indices come after all deps, so interleaving
			// InputFrom with ops would shift them.
			acc := sched.NewJob() // dependency-only inputs
			depIdx := make([]int, w.K)
			for l := 0; l < w.K; l++ {
				depIdx[l] = acc.InputFrom(prods[l])
			}
			v := depIdx[0]
			for l := 1; l < w.K; l++ {
				v = acc.Add(v, depIdx[l])
			}
			f, err := cl.Submit(acc)
			if err != nil {
				return nil, fmt.Errorf("matmul: accumulator (%d,%d): %w", i, j, err)
			}
			sinks[i][j] = f
		}
	}

	C := make([][]*ckks.Ciphertext, w.M)
	for i := range sinks {
		C[i] = make([]*ckks.Ciphertext, w.N)
		for j, f := range sinks[i] {
			ct, err := f.Wait()
			if err != nil {
				return nil, fmt.Errorf("matmul: C[%d][%d]: %w", i, j, err)
			}
			C[i][j] = ct
		}
	}
	return C, nil
}
