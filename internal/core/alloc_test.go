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
