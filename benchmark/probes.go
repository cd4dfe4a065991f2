package main

import (
	"time"

	"xehe"
	"xehe/internal/fhebench"
	"xehe/internal/gpu"
	"xehe/internal/isa"
	"xehe/internal/memcache"
	"xehe/internal/ntt"
	"xehe/internal/qos"
	"xehe/internal/sycl"
	"xehe/internal/xmath"
)

// A probe is a timed direct call into one layer's public function at
// the shape a workload uses it at. Probes run only in the traced run,
// once per run, each as several batches whose median is reported, and
// each under a span of the benchmark's own.

// probeBatches is how many timed batches a host-clock probe takes.
const probeBatches = 5

// perCall runs fn in probeBatches batches of calls and adds the wall
// seconds per call of each batch, scaled, to the ledger.
func perCall(rec *recorder, led ledger, name string, calls int, scale float64, fn func()) {
	id := rec.begin("probe " + name)
	for b := 0; b < probeBatches; b++ {
		start := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		led.add(name, time.Since(start).Seconds()/float64(calls)*scale)
	}
	rec.end(id)
}

func runProbes(rec *recorder, led ledger, short bool) {
	calls := func(n int) int {
		if short {
			return n/100 + 1
		}
		return n
	}

	// qos: one WFQ+aging decision over the default classes, all three
	// backlogged, the state advancing as the dispatcher's does.
	classes := qos.DefaultClasses()
	policy := qos.WithAging(qos.WFQ(classes), qos.DefaultAging)
	queues := make([]qos.QueueState, len(classes))
	for i := range queues {
		queues[i] = qos.QueueState{Len: 64, HeadDeadline: qos.NoDeadline()}
	}
	now := 0.0
	perCall(rec, led, "qos.pick_host_ns", calls(200_000), 1e9, func() {
		now += 1e-4
		c := policy.Pick(now, classes, queues)
		policy.Dispatched(c, 4)
		queues[c].HeadEnqueued, queues[c].OldestEnqueued = now, now
	})

	// ntt: functional forward+inverse radix-8 transforms at the serving
	// shape (N=4096, 2 polynomials x 4 moduli) and the routine shape
	// (N=32768, 2 x 9).
	for _, shape := range []struct {
		name   string
		n, rns int
		rounds int
	}{{"ntt.host_ns_per_butterfly.n4096", 4096, 4, 20}, {"ntt.host_ns_per_butterfly.n32768", 32768, 9, 1}} {
		n, rounds := shape.n, shape.rounds
		if short {
			n, rounds = 1024, 1
		}
		tbl := ntt.NewTables(n, xmath.NewModulus(xmath.GeneratePrimes(50, 1, n)[0]))
		tbls := make([]*ntt.Tables, shape.rns)
		for i := range tbls {
			tbls[i] = tbl
		}
		const polys = 2
		data := make([]uint64, polys*shape.rns*n)
		for i := range data {
			data[i] = uint64(i) % tbl.Modulus.Value
		}
		qs := []*sycl.Queue{sycl.NewQueue(gpu.NewDevice1(), isa.InlineASM)}
		eng := ntt.NewEngine(ntt.LocalRadix8)
		butterflies := float64(2 * polys * shape.rns * (n / 2) * tbl.LogN)
		perCall(rec, led, shape.name, rounds, 1e9/butterflies, func() {
			eng.Forward(qs, data, polys, tbls)
			eng.Inverse(qs, data, polys, tbls)
		})
	}

	// ntt, core and the paper's model numbers: simulated, so they move
	// only when a change alters the model.
	id := rec.begin("probe model")
	anchor := fhebench.NTTConfig{N: 32768, Instances: 1024}
	d1, d2 := gpu.Device1Spec(), gpu.Device2Spec()
	led.add("ntt.sim_eff_pct.device1", 100*fhebench.NTTEfficiency(d1, ntt.LocalRadix8, isa.InlineASM, 2, anchor))
	led.add("ntt.sim_eff_pct.device2", 100*fhebench.NTTEfficiency(d2, ntt.LocalRadix8, isa.InlineASM, 1, anchor))
	led.add("ntt.sim_speedup_vs_naive.device1", fhebench.NTTSpeedup(d1, ntt.LocalRadix8, isa.InlineASM, 2, anchor))
	steps := fhebench.Fig16Steps()
	for _, r := range routines {
		if name, ok := fhebenchRoutines[r]; ok {
			naive := fhebench.RunRoutine(d1, steps[0].Cfg, name).Total()
			opt := fhebench.RunRoutine(d1, steps[len(steps)-1].Cfg, name).Total()
			led.add("core.sim_speedup_vs_naive."+r, naive/opt)
		}
	}
	rec.end(id)

	// gpu: the host cost of launching the smallest kernel that still
	// fans out over the group runner's goroutines, and of enqueueing a
	// timing-only command.
	q := gpu.NewDevice1().NewQueue(0)
	tiny := &gpu.Kernel{Name: "probe", Range: gpu.NDRange{Global: [3]int{1, 8, 1}}, Body: func(*gpu.GroupCtx) {}}
	perCall(rec, led, "gpu.launch_host_us", calls(20_000), 1e6, func() { q.Launch(tiny, isa.InlineASM) })
	profile := gpu.KernelProfile{Name: "probe", Items: 4096}
	perCall(rec, led, "gpu.submit_host_ns", calls(200_000), 1e9, func() { q.SubmitProfile(profile, isa.InlineASM) })

	// sycl and memcache: a driver allocation at the size matMul clones
	// (one polynomial of 8192 x 6 words), and the cache's hit path.
	const words = 8192 * 6
	dev := gpu.NewDevice1()
	perCall(rec, led, "sycl.malloc_host_us_per_mb", calls(2_000), 1e6/(words*8/1e6), func() { sycl.MallocDevice(dev, words).Free() })
	cache := memcache.New(dev, true)
	cache.Warm(1, words)
	perCall(rec, led, "memcache.malloc_free_host_ns", calls(200_000), 1e9, func() { cache.Free(cache.Malloc(words)) })

	// ckks: the client-side steps set-up is made of, at both parameter sets.
	for _, p := range []struct {
		name string
		spec xehe.ParamsSpec
	}{{"demo", xehe.ParamsDemo()}, {"bench", xehe.ParamsBenchmark()}} {
		if short {
			p.spec = xehe.ParamsDemo()
		}
		params := xehe.NewParameters(p.spec)
		var kit *xehe.KeyKit
		led.add("ckks.keygen_s."+p.name, rec.timed("probe ckks.keygen."+p.name, func() { kit = xehe.GenerateKeys(params, 1, 1) }))
		v := make([]complex128, params.Slots())
		var ct *xehe.Ciphertext
		perCall(rec, led, "ckks.encrypt_ms."+p.name, 1, 1e3, func() { ct = kit.Encrypt(v) })
		perCall(rec, led, "ckks.decrypt_ms."+p.name, 1, 1e3, func() { kit.Decrypt(ct) })
	}
}
