package matmul

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"xehe/internal/ckks"
	"xehe/internal/core"
	"xehe/internal/gpu"
	"xehe/internal/ntt"
	"xehe/internal/poly"
)

func TestWorkloadString(t *testing.T) {
	w := Workload{M: 100, N: 10, K: 1}
	if w.String() != "matMul_100x10x1" {
		t.Fatalf("got %q", w.String())
	}
	if len(PaperWorkloads()) != 2 {
		t.Fatal("want 2 paper workloads")
	}
}

func TestMatMulCorrectness(t *testing.T) {
	params := ckks.TestParameters()
	kg := ckks.NewKeyGenerator(params, 3)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, pk, 4)
	decr := ckks.NewDecryptor(params, sk)

	w := Workload{M: 2, N: 2, K: 2}
	rng := rand.New(rand.NewSource(5))
	slots := params.Slots()
	level := params.MaxLevel()

	mkMatrix := func(rows, cols int) ([][]*ckks.Ciphertext, [][][]complex128) {
		cts := make([][]*ckks.Ciphertext, rows)
		vals := make([][][]complex128, rows)
		for i := 0; i < rows; i++ {
			cts[i] = make([]*ckks.Ciphertext, cols)
			vals[i] = make([][]complex128, cols)
			for j := 0; j < cols; j++ {
				v := make([]complex128, slots)
				for s := range v {
					v[s] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
				}
				ct := encr.Encrypt(enc.Encode(v, params.Scale, level))
				// Store elements in coefficient form, as Run expects.
				for _, p := range ct.Value {
					poly.INTT(p, params.TablesAt(level))
				}
				cts[i][j] = ct
				vals[i][j] = v
			}
		}
		return cts, vals
	}

	A, va := mkMatrix(w.M, w.K)
	B, vb := mkMatrix(w.K, w.N)

	cfg := core.Config{NTT: ntt.LocalRadix8, MadMod: true, MemCache: true}
	ctx := core.NewContext(params, gpu.NewDevice1(), cfg)
	C := Run(ctx, A, B, w)

	for i := 0; i < w.M; i++ {
		for j := 0; j < w.N; j++ {
			host := ctx.Download(C[i][j])
			// Outputs are degree-2 ciphertexts in coefficient form;
			// bring them back to NTT form for decryption.
			for _, p := range host.Value {
				poly.NTT(p, params.TablesAt(level))
			}
			got := enc.Decode(decr.Decrypt(host))
			for s := 0; s < 4; s++ { // spot check a few slots
				var want complex128
				for l := 0; l < w.K; l++ {
					want += va[i][l][s] * vb[l][j][s]
				}
				if cmplx.Abs(got[s]-want) > 1e-3 {
					t.Fatalf("C[%d][%d] slot %d = %v, want %v", i, j, s, got[s], want)
				}
			}
		}
	}
}

func TestMatMulOptimizationSteps(t *testing.T) {
	// Simulated time must strictly improve along the paper's
	// optimization steps (Fig. 19): baseline → mad_mod → inline asm →
	// memory cache. Every step must also conserve device memory: once
	// the products are freed no buffer is checked out and, with the free
	// pool released, the driver has refunded every byte it charged — so
	// buffer headers laid inside a ciphertext's own allocation refund
	// exactly what they were charged.
	params := ckks.NewParameters(8192, 3, 50, 40, 52, 1<<40)
	w := Workload{M: 4, N: 3, K: 2}

	steps := []core.Config{
		{NTT: ntt.LocalRadix8, Analytic: true},
		{NTT: ntt.LocalRadix8, MadMod: true, Analytic: true},
		{NTT: ntt.LocalRadix8, MadMod: true, InlineASM: true, Analytic: true},
		{NTT: ntt.LocalRadix8, MadMod: true, InlineASM: true, MemCache: true, Analytic: true},
	}
	var times []float64
	for _, cfg := range steps {
		dev := gpu.NewDevice1()
		ctx := core.NewContext(params, dev, cfg)
		A := analyticMatrix(params, w.M, w.K)
		B := analyticMatrix(params, w.K, w.N)
		C := Run(ctx, A, B, w)
		ctx.Wait()
		times = append(times, dev.HostTime())
		for _, row := range C {
			for _, ct := range row {
				ctx.Free(ct)
			}
		}
		if used := ctx.Cache.UsedCount(); used != 0 {
			t.Errorf("%+v: %d buffers still checked out after freeing the products", cfg, used)
		}
		ctx.Cache.Release()
		if live, _, _ := dev.AllocStats(); live != 0 {
			t.Errorf("%+v: %d device bytes live after freeing everything", cfg, live)
		}
	}
	for i := 1; i < len(times); i++ {
		if times[i] >= times[i-1] {
			t.Errorf("step %d (%v) did not improve on step %d (%v)", i, times[i], i-1, times[i-1])
		}
	}
	total := times[0] / times[len(times)-1]
	if total < 1.5 {
		t.Errorf("total matMul speedup %.2f too small (paper: 2.68-3.11x)", total)
	}
}

// analyticMatrix builds placeholder host ciphertexts for analytic runs
// (no real coefficients needed).
func analyticMatrix(params *ckks.Parameters, rows, cols int) [][]*ckks.Ciphertext {
	level := params.MaxLevel()
	m := make([][]*ckks.Ciphertext, rows)
	for i := range m {
		m[i] = make([]*ckks.Ciphertext, cols)
		for j := range m[i] {
			m[i][j] = &ckks.Ciphertext{
				Value: []*poly.Poly{poly.New(params.N, level+1), poly.New(params.N, level+1)},
				Scale: params.Scale,
				Level: level,
			}
		}
	}
	return m
}
