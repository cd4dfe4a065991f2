package matmul

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"xehe/internal/ckks"
	"xehe/internal/core"
	"xehe/internal/gpu"
	"xehe/internal/ntt"
	"xehe/internal/sched"
)

// checkProduct verifies C against the plaintext model on a few slots.
func checkProduct(t *testing.T, C [][]*ckks.Ciphertext, va, vb [][][]complex128, w Workload, decrypt func(*ckks.Ciphertext) []complex128) {
	t.Helper()
	for i := 0; i < w.M; i++ {
		for j := 0; j < w.N; j++ {
			got := decrypt(C[i][j])
			for s := 0; s < 4; s++ {
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

func graphSchedConfig(workers int) sched.Config {
	return sched.Config{
		Workers: workers,
		Core:    core.Config{NTT: ntt.LocalRadix8, MadMod: true, MemCache: true},
	}
}

func TestMatMulGraphScheduler(t *testing.T) {
	params := ckks.TestParameters()
	w := Workload{M: 2, N: 2, K: 3}

	kg := ckks.NewKeyGenerator(params, 21)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, pk, 22)
	decr := ckks.NewDecryptor(params, sk)
	rlk := kg.GenRelinKey(sk)
	rng := rand.New(rand.NewSource(23))
	level := params.MaxLevel()

	mk := func(rows, cols int) ([][]*ckks.Ciphertext, [][][]complex128) {
		cts := make([][]*ckks.Ciphertext, rows)
		vals := make([][][]complex128, rows)
		for i := 0; i < rows; i++ {
			cts[i] = make([]*ckks.Ciphertext, cols)
			vals[i] = make([][]complex128, cols)
			for j := 0; j < cols; j++ {
				v := make([]complex128, params.Slots())
				for s := range v {
					v[s] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
				}
				cts[i][j] = encr.Encrypt(enc.Encode(v, params.Scale, level))
				vals[i][j] = v
			}
		}
		return cts, vals
	}
	A, va := mk(w.M, w.K)
	B, vb := mk(w.K, w.N)

	cl := sched.NewCluster(params, []sched.ShardSpec{{Device: gpu.Device1Spec()}}, graphSchedConfig(2), rlk, nil)
	defer cl.Close()

	C, err := RunGraph(cl, A, B, w)
	if err != nil {
		t.Fatalf("RunGraph: %v", err)
	}
	checkProduct(t, C, va, vb, w, func(ct *ckks.Ciphertext) []complex128 {
		return enc.Decode(decr.Decrypt(ct))
	})

	// Every product→accumulator edge must have resolved through the
	// graph machinery (on-device or via host fallback), and nothing may
	// remain pinned.
	st := cl.Stats()
	edges := int64(w.M * w.N * w.K)
	if st.ResidentHits+st.ResidentMisses != edges {
		t.Errorf("ResidentHits+Misses = %d+%d, want %d edges", st.ResidentHits, st.ResidentMisses, edges)
	}
	if st.GraphJobs != int64(w.M*w.N) {
		t.Errorf("GraphJobs = %d, want %d accumulators", st.GraphJobs, w.M*w.N)
	}
	if in, _ := cl.Metrics().Get("memcache.pinned_buffers"); in.Value != 0 {
		t.Errorf("memcache.pinned_buffers = %v after drain, want 0", in.Value)
	}
}

func TestMatMulGraphK1Cluster(t *testing.T) {
	// K=1 exercises the no-accumulator path, and a heterogeneous
	// cluster exercises affinity routing.
	params := ckks.TestParameters()
	w := Workload{M: 2, N: 2, K: 1}

	kg := ckks.NewKeyGenerator(params, 31)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, pk, 32)
	decr := ckks.NewDecryptor(params, sk)
	rlk := kg.GenRelinKey(sk)
	rng := rand.New(rand.NewSource(33))
	level := params.MaxLevel()

	mk := func(rows, cols int) ([][]*ckks.Ciphertext, [][][]complex128) {
		cts := make([][]*ckks.Ciphertext, rows)
		vals := make([][][]complex128, rows)
		for i := 0; i < rows; i++ {
			cts[i] = make([]*ckks.Ciphertext, cols)
			vals[i] = make([][]complex128, cols)
			for j := 0; j < cols; j++ {
				v := make([]complex128, params.Slots())
				for s := range v {
					v[s] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
				}
				cts[i][j] = encr.Encrypt(enc.Encode(v, params.Scale, level))
				vals[i][j] = v
			}
		}
		return cts, vals
	}
	A, va := mk(w.M, w.K)
	B, vb := mk(w.K, w.N)

	cl := sched.NewCluster(params, []sched.ShardSpec{
		{Device: gpu.Device1Spec(), Node: 0},
		{Device: gpu.Device2Spec(), Node: 1},
	}, graphSchedConfig(1), rlk, nil)
	defer cl.Close()

	C, err := RunGraph(cl, A, B, w)
	if err != nil {
		t.Fatalf("RunGraph: %v", err)
	}
	checkProduct(t, C, va, vb, w, func(ct *ckks.Ciphertext) []complex128 {
		return enc.Decode(decr.Decrypt(ct))
	})
}
