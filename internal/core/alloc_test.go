package core

import (
	"testing"

	"xehe/internal/ckks"
	"xehe/internal/gpu"
	"xehe/internal/race"
)

// TestWarmTimingOnlyLaunchesAllocateNothing pins the per-launch
// allocation budget of timing-only mode at zero: on ciphertexts
// allocated beforehand and one queue, warm FwdNTTCt, MulAcc and
// InvNTTCt — every launch of the paper's matMul (Fig. 19) — touch no
// heap, with and without mad_mod and with the memory cache off and on.
// A launch that builds a handler, an event slice, a kernel descriptor,
// a body closure, a shape view or a price fails here.
func TestWarmTimingOnlyLaunchesAllocateNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	params := ckks.TestParameters()
	level := params.MaxLevel()
	for _, cfg := range []Config{OptNTT(), OptNTTAsm()} {
		for _, memCache := range []bool{false, true} {
			cfg.MemCache, cfg.Analytic = memCache, true
			ctx := NewContext(params, gpu.NewDevice1(), cfg)
			a := ctx.NewZeroCt(1, level, params.Scale, false)
			b := ctx.NewZeroCt(1, level, params.Scale, false)
			acc := ctx.NewZeroCt(2, level, params.Scale*params.Scale, true)
			step := func() {
				ctx.FwdNTTCt(a)
				ctx.FwdNTTCt(b)
				ctx.MulAcc(acc, a, b)
				ctx.InvNTTCt(a)
				ctx.InvNTTCt(b)
			}
			step()
			if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
				t.Errorf("mad_mod=%v memcache=%v: a warm timing-only FwdNTTCt×2 + MulAcc + InvNTTCt×2 allocates %v objects, want 0", cfg.MadMod, memCache, allocs)
			}
		}
	}
}

// TestWarmTimingOnlyCiphertextsAllocateOne pins the per-ciphertext
// budget of timing-only mode at one heap object: a warm CloneCt,
// NewZeroCt of degree 1 and of degree 2 each allocate exactly their own
// block, and Free allocates nothing, with the memory cache off and on.
// The budget is one, not zero, because blocks are never recycled: a
// stale pointer or a Borrow alias must never name a later ciphertext.
// A ciphertext built piece by piece — its ckks.Ciphertext, Value and
// buffer lists, a poly.Poly or, with the cache off, a sycl.Buffer per
// component — or a cache that allocates per buffer fails here.
func TestWarmTimingOnlyCiphertextsAllocateOne(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	params := ckks.TestParameters()
	level := params.MaxLevel()
	for _, memCache := range []bool{false, true} {
		cfg := OptNTTAsm()
		cfg.MemCache, cfg.Analytic = memCache, true
		ctx := NewContext(params, gpu.NewDevice1(), cfg)
		src := ctx.NewZeroCt(1, level, params.Scale, false)
		for name, alloc := range map[string]func() *Ciphertext{
			"CloneCt":         func() *Ciphertext { return ctx.CloneCt(src) },
			"NewZeroCt(1, …)": func() *Ciphertext { return ctx.NewZeroCt(1, level, params.Scale, true) },
			"NewZeroCt(2, …)": func() *Ciphertext { return ctx.NewZeroCt(2, level, params.Scale, true) },
		} {
			// Two rounds of runs+1 ciphertexts (AllocsPerRun warms up with one
			// call) grow the cache's pool and used set to their size first.
			const runs = 50
			cts := make([]*Ciphertext, runs+1)
			for range 2 {
				for i := range cts {
					cts[i] = alloc()
				}
				for _, ct := range cts {
					ctx.Free(ct)
				}
			}
			next := 0
			if allocs := testing.AllocsPerRun(runs, func() { cts[next] = alloc(); next++ }); allocs != 1 {
				t.Errorf("memcache=%v: a warm timing-only %s allocates %v objects, want 1", memCache, name, allocs)
			}
			next = 0
			if allocs := testing.AllocsPerRun(runs, func() { ctx.Free(cts[next]); next++ }); allocs != 0 {
				t.Errorf("memcache=%v: Free of a %s result allocates %v objects, want 0", memCache, name, allocs)
			}
		}
	}
}
