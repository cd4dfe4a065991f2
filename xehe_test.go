package xehe

import (
	"math/cmplx"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

var (
	testParams *Parameters
	testKit    *KeyKit
)

func fixture(t testing.TB) (*Parameters, *KeyKit) {
	t.Helper()
	if testParams == nil {
		testParams = NewParameters(ParamsDemo())
		testKit = GenerateKeys(testParams, 42, 1)
	}
	return testParams, testKit
}

func randVec(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return v
}

// sameCiphertext reports whether two ciphertexts are bit-identical:
// same level, scale and raw RNS coefficients.
func sameCiphertext(a, b *Ciphertext) bool {
	if a.Level != b.Level || a.Scale != b.Scale || len(a.Value) != len(b.Value) {
		return false
	}
	for i := range a.Value {
		if !slices.Equal(a.Value[i].Data(), b.Value[i].Data()) {
			return false
		}
	}
	return true
}

func TestFacadeEncryptDecrypt(t *testing.T) {
	params, kit := fixture(t)
	v := randVec(params.Slots(), 1)
	got := kit.Decrypt(kit.Encrypt(v))
	for i := range v {
		if cmplx.Abs(got[i]-v[i]) > 1e-6 {
			t.Fatalf("slot %d: %v vs %v", i, got[i], v[i])
		}
	}
}

func TestFacadeHomomorphicOps(t *testing.T) {
	params, kit := fixture(t)
	a := randVec(params.Slots(), 2)
	b := randVec(params.Slots(), 3)
	cta, ctb := kit.Encrypt(a), kit.Encrypt(b)

	for _, dev := range []DeviceKind{Device1, Device2} {
		he := NewGPUEvaluator(params, kit, dev, ConfigOptimized())

		sum := kit.Decrypt(he.Add(cta, ctb))
		prod := kit.Decrypt(he.MulRelinRescale(cta, ctb))
		rot := kit.Decrypt(he.Rotate(cta, 1))
		for i := range a {
			if cmplx.Abs(sum[i]-(a[i]+b[i])) > 1e-6 {
				t.Fatalf("dev %d add slot %d", dev, i)
			}
			if cmplx.Abs(prod[i]-a[i]*b[i]) > 1e-4 {
				t.Fatalf("dev %d mul slot %d", dev, i)
			}
			if cmplx.Abs(rot[i]-a[(i+1)%len(a)]) > 1e-4 {
				t.Fatalf("dev %d rotate slot %d", dev, i)
			}
		}
		if he.SimulatedSeconds() <= 0 {
			t.Fatal("no simulated time accumulated")
		}
	}
}

func TestFacadeNaiveVsOptimizedTiming(t *testing.T) {
	params, kit := fixture(t)
	a := randVec(params.Slots(), 4)
	ct := kit.Encrypt(a)

	naive := NewGPUEvaluator(params, kit, Device1, ConfigNaive())
	opt := NewGPUEvaluator(params, kit, Device1, ConfigOptimized())
	naive.SquareRelinRescale(ct)
	opt.SquareRelinRescale(ct)
	if opt.SimulatedSeconds() >= naive.SimulatedSeconds() {
		t.Fatalf("optimized config (%v s) must beat naive (%v s)",
			opt.SimulatedSeconds(), naive.SimulatedSeconds())
	}
}

func TestRotateWithoutKeyPanics(t *testing.T) {
	params, kit := fixture(t)
	he := NewGPUEvaluator(params, kit, Device1, ConfigNaive())
	ct := kit.Encrypt(randVec(params.Slots(), 5))
	defer func() {
		if recover() == nil {
			t.Fatal("rotate without key did not panic")
		}
	}()
	he.Rotate(ct, 3)
}

// TestServiceFacade drives the concurrent Service end to end: mixed
// jobs submitted from several goroutines, decrypted results checked
// against the plaintext expectations, and after Close no goroutine left
// of the ones the service started (its workers and its cluster's
// control loop).
func TestServiceFacade(t *testing.T) {
	params, kit := fixture(t)
	baseline := runtime.NumGoroutine()
	svc := NewService(params, kit, Device1, ServiceConfig{Workers: 3})
	defer svc.Close()

	a := randVec(params.Slots(), 6)
	b := randVec(params.Slots(), 7)
	cta, ctb := kit.Encrypt(a), kit.Encrypt(b)

	type testCase struct {
		job  *Job
		want func(i int) complex128
	}
	cases := []testCase{
		{func() *Job {
			j := NewJob(cta, ctb)
			j.Add(0, 1)
			return j
		}(), func(i int) complex128 { return a[i] + b[i] }},
		{func() *Job {
			j := NewJob(cta, ctb)
			j.MulRelinRescale(0, 1)
			return j
		}(), func(i int) complex128 { return a[i] * b[i] }},
		{func() *Job {
			j := NewJob(cta)
			r := j.SquareRelinRescale(0)
			j.Rotate(r, 1)
			return j
		}(), func(i int) complex128 {
			x := a[(i+1)%len(a)]
			return x * x
		}},
	}

	futs := make([]*Pending, len(cases))
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	for i, tc := range cases {
		wg.Add(1)
		go func(i int, job *Job) {
			defer wg.Done()
			futs[i], errs[i] = svc.Submit(job)
		}(i, tc.job)
	}
	wg.Wait()
	svc.Wait()

	for i, tc := range cases {
		if errs[i] != nil {
			t.Fatalf("case %d: submit: %v", i, errs[i])
		}
		ct, err := futs[i].Wait()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got := kit.Decrypt(ct)
		for s := 0; s < params.Slots(); s++ {
			if cmplx.Abs(got[s]-tc.want(s)) > 1e-3 {
				t.Fatalf("case %d slot %d: %v, want %v", i, s, got[s], tc.want(s))
			}
		}
	}
	if st := svc.Stats(); st.Jobs != int64(len(cases)) || st.Failed != 0 {
		t.Fatalf("stats = %+v, want %d jobs, 0 failed", st, len(cases))
	}
	if svc.SimulatedSeconds() <= 0 {
		t.Fatal("no simulated time accumulated")
	}
	svc.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after Close, %d before NewService", n, baseline)
	}
}

// TestClusterFacade drives the multi-device Cluster end to end over a
// heterogeneous device mix: jobs submitted from several goroutines,
// decrypted results checked against the plaintext model, aggregate and
// per-shard stats consistent, Close idempotent.
func TestClusterFacade(t *testing.T) {
	params, kit := fixture(t)
	cl := NewCluster(params, kit, []DeviceKind{Device1, Device2}, ClusterConfig{WarmBuffers: 8})
	defer cl.Close()
	if cl.Shards() != 2 {
		t.Fatalf("shards = %d, want 2", cl.Shards())
	}

	a := randVec(params.Slots(), 20)
	b := randVec(params.Slots(), 21)
	cta, ctb := kit.Encrypt(a), kit.Encrypt(b)

	const jobs = 12
	futs := make([]*Pending, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j := NewJob(cta, ctb)
			r := j.MulRelinRescale(0, 1)
			j.Rotate(r, 1)
			futs[i], errs[i] = cl.Submit(j)
		}(i)
	}
	wg.Wait()
	cl.Wait()

	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: submit: %v", i, errs[i])
		}
		ct, err := futs[i].Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		got := kit.Decrypt(ct)
		for s := 0; s < params.Slots(); s++ {
			want := a[(s+1)%len(a)] * b[(s+1)%len(a)]
			if cmplx.Abs(got[s]-want) > 1e-3 {
				t.Fatalf("job %d slot %d: %v, want %v", i, s, got[s], want)
			}
		}
	}

	st := cl.Stats()
	if st.Jobs != jobs || st.Failed != 0 {
		t.Fatalf("aggregate stats = %d jobs / %d failed, want %d/0", st.Jobs, st.Failed, jobs)
	}
	var routed int64
	for _, r := range st.Routed {
		routed += r
	}
	if routed != jobs {
		t.Fatalf("routed %d jobs, want %d", routed, jobs)
	}
	if cl.SimulatedSeconds() <= 0 {
		t.Fatal("no simulated time accumulated")
	}

	cl.Close()
	if _, err := cl.Submit(NewJob(cta)); err == nil {
		t.Fatal("Submit after Close must error")
	}
}

// TestClusterFacadeRemoteSelfHeal drives the remote half of the facade
// — shards behind a network hop, the supervisor with one warm standby —
// through a kill, an AddShard on a remote node and a DrainShard, with
// jobs in flight across all three: every result must equal the serial
// GPUEvaluator's bit for bit, the kill must be absorbed by the standby,
// and nothing may fail.
func TestClusterFacadeRemoteSelfHeal(t *testing.T) {
	params, kit := fixture(t)
	remote := func(node int) NodeSpec { return NodeSpec{Node: node, LatencyUS: 5, GBps: 12} }
	cl := NewCluster(params, kit, []DeviceKind{Device1, Device1}, ClusterConfig{
		Nodes:    []NodeSpec{remote(0), remote(1)},
		SelfHeal: true,
		Standbys: 1,
	})
	defer cl.Close()

	cta, ctb := kit.Encrypt(randVec(params.Slots(), 30)), kit.Encrypt(randVec(params.Slots(), 31))
	ev := NewGPUEvaluator(params, kit, Device1, ConfigOptimized())
	want := ev.Rotate(ev.MulRelinRescale(cta, ctb), 1)

	const jobs = 12
	futs := make([]*Pending, jobs)
	for i := range futs {
		switch i {
		case jobs / 4:
			if !cl.Faults().KillShard(0) {
				t.Fatal("KillShard(0) returned false")
			}
		case jobs / 2:
			if _, err := cl.AddShard(Device2, remote(7)); err != nil {
				t.Fatalf("AddShard: %v", err)
			}
		case 3 * jobs / 4:
			cl.DrainShard(1)
		}
		j := NewJob(cta, ctb)
		j.Rotate(j.MulRelinRescale(0, 1), 1)
		fut, err := cl.Submit(j)
		if err != nil {
			t.Fatalf("job %d: submit: %v", i, err)
		}
		futs[i] = fut
	}
	cl.Wait()
	for i, fut := range futs {
		got, err := fut.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if !sameCiphertext(got, want) {
			t.Fatalf("job %d diverges from the GPUEvaluator", i)
		}
	}
	st := cl.Stats()
	if st.Jobs != jobs || st.Failed != 0 {
		t.Fatalf("stats = %d jobs / %d failed, want %d/0", st.Jobs, st.Failed, jobs)
	}
	if st.StandbyPromoted != 1 || st.Killed != 1 {
		t.Fatalf("StandbyPromoted = %d, Killed = %d, want 1 and 1", st.StandbyPromoted, st.Killed)
	}
}

// TestServiceRejectsMalformedJobs covers the validation surface of the
// public API.
func TestServiceRejectsMalformedJobs(t *testing.T) {
	params, kit := fixture(t)
	svc := NewService(params, kit, Device2, ServiceConfig{Workers: 1})
	defer svc.Close()
	ct := kit.Encrypt(randVec(params.Slots(), 8))

	if _, err := svc.Submit(NewJob(ct)); err == nil {
		t.Error("job with no ops must be rejected")
	}
	j := NewJob(ct)
	j.Add(0, 5)
	if _, err := svc.Submit(j); err == nil {
		t.Error("out-of-range operand must be rejected")
	}
	j2 := NewJob(ct)
	j2.Rotate(0, 9) // fixture only generates the key for rotation 1
	if _, err := svc.Submit(j2); err == nil {
		t.Error("rotation without Galois key must be rejected")
	}
}

// TestServiceQoSFacade drives the QoS surface end to end: classed and
// deadlined jobs through a policy-configured service, per-class stats
// populated, and the admission-control error surfaced for a
// partial-share class under flood.
func TestServiceQoSFacade(t *testing.T) {
	params, kit := fixture(t)
	svc := NewService(params, kit, Device1, ServiceConfig{
		Workers: 2,
		Policy:  PolicyWFQ,
	})
	defer svc.Close()

	a := randVec(params.Slots(), 30)
	ct := kit.Encrypt(a)
	mk := func(class JobClass, deadline float64) *Job {
		j := NewJob(ct).WithClass(class).WithDeadline(deadline)
		j.SquareRelinRescale(0)
		return j
	}
	futs := []*Pending{}
	for i := 0; i < 4; i++ {
		fut, err := svc.Submit(mk(Interactive, 1e6)) // generous: always a hit
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
		if fut, err = svc.Submit(mk(Batch, 0)); err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	svc.Wait()
	for i, fut := range futs {
		ctOut, err := fut.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		got := kit.Decrypt(ctOut)
		for s := range a {
			if cmplx.Abs(got[s]-a[s]*a[s]) > 1e-3 {
				t.Fatalf("job %d slot %d: %v, want %v", i, s, got[s], a[s]*a[s])
			}
		}
	}
	st := svc.Stats()
	if len(st.PerClass) != 3 {
		t.Fatalf("PerClass has %d entries, want 3", len(st.PerClass))
	}
	inter, batch := st.PerClass[Interactive], st.PerClass[Batch]
	if inter.Completed != 4 || batch.Completed != 4 {
		t.Fatalf("per-class completions %d/%d, want 4/4", inter.Completed, batch.Completed)
	}
	if inter.DeadlineHit != 4 || inter.DeadlineMiss != 0 {
		t.Fatalf("interactive deadline stats %d hit / %d miss, want 4/0", inter.DeadlineHit, inter.DeadlineMiss)
	}
	if inter.P50 <= 0 || inter.P99 < inter.P50 {
		t.Fatalf("latency quantiles inconsistent: %+v", inter)
	}
	if inter.Name != "interactive" || batch.Name != "batch" {
		t.Fatalf("class names %q/%q", inter.Name, batch.Name)
	}
}

// TestServiceOverloadSurfacesErrOverloaded pins the public admission
// contract: a partial-share class floods into ErrOverloaded while the
// service keeps draining (no wedge), and rejections are counted.
func TestServiceOverloadSurfacesErrOverloaded(t *testing.T) {
	params, kit := fixture(t)
	svc := NewService(params, kit, Device2, ServiceConfig{
		Workers:    1,
		MaxBatch:   1,
		PendingCap: 1, // interactive share -> 1 slot
	})
	defer svc.Close()
	ct := kit.Encrypt(randVec(params.Slots(), 31))
	var rejected, accepted int
	for i := 0; i < 25; i++ {
		j := NewJob(ct).WithClass(Interactive)
		j.SquareRelinRescale(0)
		_, err := svc.Submit(j)
		switch err {
		case nil:
			accepted++
		case ErrOverloaded:
			rejected++
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if rejected == 0 || accepted == 0 {
		t.Fatalf("flood split %d accepted / %d rejected; want both non-zero", accepted, rejected)
	}
	svc.Wait() // must not wedge on shed jobs
	st := svc.Stats()
	if st.PerClass[Interactive].Rejected != int64(rejected) {
		t.Fatalf("stats count %d rejected, caller saw %d", st.PerClass[Interactive].Rejected, rejected)
	}
	if st.Jobs != int64(accepted) {
		t.Fatalf("jobs = %d, want %d", st.Jobs, accepted)
	}
}

// TestServiceBackendOverride pins that the naive baseline — whose
// Config is the zero value — is selectable through ServiceConfig
// (regression: a value-typed Backend field silently replaced it with
// the optimized stack).
func TestServiceBackendOverride(t *testing.T) {
	params, kit := fixture(t)
	ct := kit.Encrypt(randVec(params.Slots(), 9))
	run := func(backend Config) float64 {
		cfg := backend
		svc := NewService(params, kit, Device1, ServiceConfig{Workers: 1, Backend: &cfg})
		defer svc.Close()
		j := NewJob(ct)
		j.SquareRelinRescale(0)
		fut, err := svc.Submit(j)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
		return svc.SimulatedSeconds()
	}
	naive := run(ConfigNaive())
	opt := run(ConfigOptimized())
	if opt >= naive {
		t.Fatalf("optimized backend (%v s) must beat naive (%v s); naive override was ignored", opt, naive)
	}
}

// TestOneWorkerServiceIsPinned pins the simulated numbers of the
// one-worker service shape to the digit, on both devices: the stream of
// TestTimingOnlySchedulerIsATwin in internal/sched (8 ×
// MulRelinRescale+Rotate), submitted one job at a time so every batch
// is a single job and the clocks are deterministic. A change to how a
// Service is built or served that moves a simulated clock fails here.
func TestOneWorkerServiceIsPinned(t *testing.T) {
	params, kit := fixture(t)
	vals := make([]complex128, params.Slots())
	a, b := kit.Encrypt(vals), kit.Encrypt(vals)
	for _, want := range []struct {
		dev           DeviceKind
		sim, p50, p99 float64
	}{
		{Device1, 0.0009421697892490323, 8.832747365612904e-05, 0.0002038774726561291},
		{Device2, 0.0013471078989468518, 0.0001377514503313194, 0.0002643292271090973},
	} {
		svc := NewService(params, kit, want.dev, ServiceConfig{Workers: 1})
		for i := 0; i < 8; i++ {
			j := NewJob(a, b)
			j.Rotate(j.MulRelinRescale(0, 1), 1)
			fut, err := svc.Submit(j)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fut.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		svc.Wait()
		sim, batch := svc.SimulatedSeconds(), svc.Stats().PerClass[Batch]
		svc.Close()
		if sim != want.sim || batch.P50 != want.p50 || batch.P99 != want.p99 {
			t.Errorf("device %d: simulated %v s, batch p50 %v s, p99 %v s; want %v, %v, %v",
				want.dev, sim, batch.P50, batch.P99, want.sim, want.p50, want.p99)
		}
	}
}
