// Encrypted element-wise polynomial matrix multiplication — the
// application benchmark of the paper's Section IV-E (Fig. 19) — run
// functionally with decryption checks and with the optimization
// staircase timed on the simulated device, then re-expressed as a
// scheduler job graph on a heterogeneous cluster where the K partial
// products per output element stay device-resident until their
// accumulator job consumes them.
package main

import (
	"fmt"
	"math/rand"

	"xehe/internal/apps/matmul"
	"xehe/internal/ckks"
	"xehe/internal/core"
	"xehe/internal/gpu"
	"xehe/internal/ntt"
	"xehe/internal/poly"
	"xehe/internal/sched"
)

func main() {
	params := ckks.TestParameters()
	kg := ckks.NewKeyGenerator(params, 11)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, pk, 12)
	decr := ckks.NewDecryptor(params, sk)

	w := matmul.Workload{M: 3, N: 2, K: 2}
	level := params.MaxLevel()
	rng := rand.New(rand.NewSource(13))

	mk := func(rows, cols int) ([][]*ckks.Ciphertext, [][]complex128) {
		cts := make([][]*ckks.Ciphertext, rows)
		firstSlot := make([][]complex128, rows)
		for i := range cts {
			cts[i] = make([]*ckks.Ciphertext, cols)
			firstSlot[i] = make([]complex128, cols)
			for j := range cts[i] {
				v := make([]complex128, params.Slots())
				for s := range v {
					v[s] = complex(rng.Float64()-0.5, 0)
				}
				firstSlot[i][j] = v[0]
				ct := encr.Encrypt(enc.Encode(v, params.Scale, level))
				for _, p := range ct.Value {
					poly.INTT(p, params.TablesAt(level)) // store in coefficient form
				}
				cts[i][j] = ct
			}
		}
		return cts, firstSlot
	}

	A, va := mk(w.M, w.K)
	B, vb := mk(w.K, w.N)

	cfg := core.Config{NTT: ntt.LocalRadix8, MadMod: true, InlineASM: true, MemCache: true}
	dev := gpu.NewDevice1()
	ctx := core.NewContext(params, dev, cfg)
	C := matmul.Run(ctx, A, B, w)

	fmt.Printf("%s — slot-0 results (decrypted vs expected):\n", w)
	for i := 0; i < w.M; i++ {
		for j := 0; j < w.N; j++ {
			host := ctx.Download(C[i][j])
			for _, p := range host.Value {
				poly.NTT(p, params.TablesAt(level))
			}
			got := enc.Decode(decr.Decrypt(host))[0]
			var want complex128
			for l := 0; l < w.K; l++ {
				want += va[i][l] * vb[l][j]
			}
			fmt.Printf("  C[%d][%d] = %8.5f  (want %8.5f)\n", i, j, real(got), real(want))
		}
	}
	hits, misses := ctx.CacheStats()
	fmt.Printf("\nmemory cache: %d hits, %d driver allocations\n", hits, misses)
	fmt.Printf("simulated time: %.3f ms\n", dev.Seconds(dev.HostTime())*1e3)

	// The same product as a job graph on a two-device cluster: one
	// MulRelin job per element product, one accumulator job per output
	// element consuming its K partials via InputFrom. Inputs here are
	// slot-form (the domain the job ops work in), and only the M×N
	// sinks are downloaded — the M×N×K intermediates stay on-device.
	rlk := kg.GenRelinKey(sk)
	mkSlot := func(rows, cols int) ([][]*ckks.Ciphertext, [][]complex128) {
		cts := make([][]*ckks.Ciphertext, rows)
		firstSlot := make([][]complex128, rows)
		for i := range cts {
			cts[i] = make([]*ckks.Ciphertext, cols)
			firstSlot[i] = make([]complex128, cols)
			for j := range cts[i] {
				v := make([]complex128, params.Slots())
				for s := range v {
					v[s] = complex(rng.Float64()-0.5, 0)
				}
				firstSlot[i][j] = v[0]
				cts[i][j] = encr.Encrypt(enc.Encode(v, params.Scale, level))
			}
		}
		return cts, firstSlot
	}
	GA, ga := mkSlot(w.M, w.K)
	GB, gb := mkSlot(w.K, w.N)

	cl := sched.NewCluster(params, []sched.ShardSpec{
		{Device: gpu.Device1Spec(), Node: 0},
		{Device: gpu.Device2Spec(), Node: 1},
	}, sched.Config{Core: cfg}, rlk, nil)
	defer cl.Close()

	GC, err := matmul.RunGraph(cl, GA, GB, w)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\n%s as a job graph — slot-0 results (decrypted vs expected):\n", w)
	for i := 0; i < w.M; i++ {
		for j := 0; j < w.N; j++ {
			got := enc.Decode(decr.Decrypt(GC[i][j]))[0]
			var want complex128
			for l := 0; l < w.K; l++ {
				want += ga[i][l] * gb[l][j]
			}
			fmt.Printf("  C[%d][%d] = %8.5f  (want %8.5f)\n", i, j, real(got), real(want))
		}
	}
	st := cl.Stats()
	fmt.Printf("\ngraph: %d accumulators, %d edges on-device, %d via host\n",
		st.GraphJobs, st.ResidentHits, st.ResidentMisses)
}
