package xehe

// One testing.B benchmark per table/figure of the paper. Each
// benchmark does real work (functional kernels, measured by Go's
// timer) and additionally reports the simulated-device metric the
// corresponding figure plots (sim-speedup, sim-efficiency-%), so
// `go test -bench . -benchmem` regenerates the paper's numbers
// alongside host-side throughput. `cmd/xehe-bench` prints the full
// figure tables.

import (
	"testing"

	"xehe/internal/apps/matmul"
	"xehe/internal/core"
	"xehe/internal/fhebench"
	"xehe/internal/gpu"
	"xehe/internal/isa"
	"xehe/internal/ntt"
	"xehe/internal/roofline"
	"xehe/internal/sycl"
	"xehe/internal/xmath"
)

var benchAnchor = fhebench.NTTConfig{N: 32768, Instances: 1024}

// BenchmarkTable1OpCounts regenerates Table I's per-round op counts.
func BenchmarkTable1OpCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range []int{2, 4, 8, 16} {
			o, bf, tot := ntt.RoundOps(r)
			if o+bf != tot {
				b.Fatal("op accounting broken")
			}
		}
	}
	_, _, t2 := ntt.RoundOps(2)
	_, _, t8 := ntt.RoundOps(8)
	b.ReportMetric(t2, "radix2-ops")
	b.ReportMetric(t8, "radix8-ops")
}

// benchNTTVariant runs a functional batched NTT and reports the
// simulated efficiency/speedup of the same variant at paper scale.
func benchNTTVariant(b *testing.B, spec gpu.DeviceSpec, v ntt.Variant, cg isa.CodeGen, tiles int) {
	const n, rns, polys = 4096, 4, 4
	primes := xmath.GeneratePrimes(50, rns, n)
	tbls := make([]*ntt.Tables, rns)
	for i, p := range primes {
		tbls[i] = ntt.NewTables(n, xmath.NewModulus(p))
	}
	data := make([]uint64, polys*rns*n)
	for i := range data {
		data[i] = uint64(i) % tbls[0].Modulus.Value
	}
	dev := gpu.NewDevice(spec)
	var qs []*sycl.Queue
	if tiles > 1 && spec.Tiles > 1 {
		qs = sycl.NewQueuesAllTiles(dev, cg)
	} else {
		qs = []*sycl.Queue{sycl.NewQueue(dev, cg)}
	}
	e := ntt.NewEngine(v)
	b.SetBytes(int64(len(data) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Forward(qs, data, polys, tbls)
	}
	b.StopTimer()
	b.ReportMetric(100*fhebench.NTTEfficiency(spec, v, cg, tiles, benchAnchor), "sim-eff-%")
	b.ReportMetric(fhebench.NTTSpeedup(spec, v, cg, tiles, benchAnchor), "sim-speedup")
}

// BenchmarkFig12SIMDVariants covers the staged radix-2 trials.
func BenchmarkFig12SIMDVariants(b *testing.B) {
	for _, v := range []ntt.Variant{ntt.NaiveRadix2, ntt.SIMD8x8, ntt.SIMD16x8, ntt.SIMD32x8} {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			benchNTTVariant(b, gpu.Device1Spec(), v, isa.CompilerGenerated, 1)
		})
	}
}

// BenchmarkFig13HighRadix covers the high-radix SLM trials.
func BenchmarkFig13HighRadix(b *testing.B) {
	for _, v := range []ntt.Variant{ntt.LocalRadix4, ntt.LocalRadix8, ntt.LocalRadix16} {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			benchNTTVariant(b, gpu.Device1Spec(), v, isa.CompilerGenerated, 1)
		})
	}
}

// BenchmarkFig14aInlineAsm covers the assembly-level step.
func BenchmarkFig14aInlineAsm(b *testing.B) {
	b.Run("compiler", func(b *testing.B) {
		benchNTTVariant(b, gpu.Device1Spec(), ntt.LocalRadix8, isa.CompilerGenerated, 1)
	})
	b.Run("inline-asm", func(b *testing.B) {
		benchNTTVariant(b, gpu.Device1Spec(), ntt.LocalRadix8, isa.InlineASM, 1)
	})
}

// BenchmarkFig14bDualTile covers the explicit dual-tile step.
func BenchmarkFig14bDualTile(b *testing.B) {
	b.Run("1-tile", func(b *testing.B) {
		benchNTTVariant(b, gpu.Device1Spec(), ntt.LocalRadix8, isa.InlineASM, 1)
	})
	b.Run("2-tile", func(b *testing.B) {
		benchNTTVariant(b, gpu.Device1Spec(), ntt.LocalRadix8, isa.InlineASM, 2)
	})
}

// BenchmarkFig17NTTDevice2 covers the Device2 NTT ladder.
func BenchmarkFig17NTTDevice2(b *testing.B) {
	cases := []struct {
		name string
		v    ntt.Variant
		cg   isa.CodeGen
	}{
		{"naive", ntt.NaiveRadix2, isa.CompilerGenerated},
		{"SIMD(8,8)", ntt.SIMD8x8, isa.CompilerGenerated},
		{"opt-NTT", ntt.LocalRadix8, isa.CompilerGenerated},
		{"opt-NTT+asm", ntt.LocalRadix8, isa.InlineASM},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			benchNTTVariant(b, gpu.Device2Spec(), c.v, c.cg, 1)
		})
	}
}

// BenchmarkFig15Roofline reports densities and achieved GIOPS.
func BenchmarkFig15Roofline(b *testing.B) {
	spec := gpu.Device1Spec()
	m := roofline.Model{Spec: spec, Tiles: 1}
	tbl := ntt.NewTables(32768, xmath.NewModulus(xmath.GeneratePrimes(50, 1, 32768)[0]))
	var naive, r8 roofline.Point
	for i := 0; i < b.N; i++ {
		naive = m.Point(ntt.NaiveRadix2, 32768, 8, 1024, []*ntt.Tables{tbl}, false)
		r8 = m.Point(ntt.LocalRadix8, 32768, 8, 1024, []*ntt.Tables{tbl}, false)
	}
	b.ReportMetric(naive.Density, "naive-op/B")
	b.ReportMetric(r8.Density, "radix8-op/B")
}

// BenchmarkFig05RoutineProfile reports the naive-config NTT share of
// each routine.
func BenchmarkFig05RoutineProfile(b *testing.B) {
	for _, r := range core.RoutineNames {
		r := r
		b.Run(r, func(b *testing.B) {
			var res fhebench.RoutineResult
			for i := 0; i < b.N; i++ {
				res = fhebench.RunRoutine(gpu.Device1Spec(), core.Naive(), r)
			}
			b.ReportMetric(100*res.NTTShare(), "ntt-share-%")
		})
	}
}

// benchRoutineSteps reports the simulated speedup ladder of one
// routine figure while doing the functional routine at test scale.
func benchRoutineSteps(b *testing.B, spec gpu.DeviceSpec, steps []fhebench.RoutineStep) {
	for _, r := range core.RoutineNames {
		r := r
		b.Run(r, func(b *testing.B) {
			var base, final float64
			for i := 0; i < b.N; i++ {
				base = fhebench.RunRoutine(spec, steps[0].Cfg, r).Total()
				final = fhebench.RunRoutine(spec, steps[len(steps)-1].Cfg, r).Total()
			}
			b.ReportMetric(base/final, "sim-speedup")
		})
	}
}

// BenchmarkFig16RoutinesDevice1 covers the Device1 routine staircase.
func BenchmarkFig16RoutinesDevice1(b *testing.B) {
	benchRoutineSteps(b, gpu.Device1Spec(), fhebench.Fig16Steps())
}

// BenchmarkFig18RoutinesDevice2 covers the Device2 routine staircase.
func BenchmarkFig18RoutinesDevice2(b *testing.B) {
	benchRoutineSteps(b, gpu.Device2Spec(), fhebench.Fig18Steps())
}

// BenchmarkFig19MatMul covers the application ablation.
func BenchmarkFig19MatMul(b *testing.B) {
	for _, spec := range []gpu.DeviceSpec{gpu.Device1Spec(), gpu.Device2Spec()} {
		spec := spec
		for _, w := range matmul.PaperWorkloads() {
			w := w
			b.Run(spec.Name+"/"+w.String(), func(b *testing.B) {
				steps := fhebench.MatMulSteps()
				var t0, t3 float64
				for i := 0; i < b.N; i++ {
					t0 = fhebench.RunMatMul(spec, steps[0].Cfg, w)
					t3 = fhebench.RunMatMul(spec, steps[3].Cfg, w)
				}
				b.ReportMetric(t0/t3, "sim-speedup")
			})
		}
	}
}

// --- ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblationMadMod isolates the fused multiply-add-mod.
func BenchmarkAblationMadMod(b *testing.B) {
	m := xmath.NewModulus(xmath.GeneratePrimes(50, 1, 1024)[0])
	x := uint64(123456789)
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x = m.MAdMod(x, x|1, x>>1)
		}
	})
	b.Run("separate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x = xmath.AddMod(m.MulMod(x, x|1), x>>1, m.Value)
		}
	})
	sinkBench = x
}

var sinkBench uint64

// BenchmarkAblationMemCache measures the simulated allocation saving
// under an allocation-heavy op chain.
func BenchmarkAblationMemCache(b *testing.B) {
	params := fhebench.AppParams()
	for _, cache := range []bool{false, true} {
		cache := cache
		name := "off"
		if cache {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var host float64
			for i := 0; i < b.N; i++ {
				dev := gpu.NewDevice1()
				cfg := core.Config{NTT: ntt.LocalRadix8, MadMod: true, MemCache: cache, Analytic: true}
				ctx := core.NewContext(params, dev, cfg)
				rlk := fhebench.DummyRelinKey(params)
				a := ctx.NewZeroCt(1, params.MaxLevel(), params.Scale, true)
				for j := 0; j < 4; j++ {
					r := ctx.MulLin(a, a, rlk)
					ctx.Free(r)
				}
				ctx.Wait()
				host = dev.HostTime()
			}
			b.ReportMetric(host, "sim-host-cycles")
		})
	}
}

// BenchmarkAblationAsync compares blocking vs asynchronous pipelines.
func BenchmarkAblationAsync(b *testing.B) {
	params := fhebench.AppParams()
	for _, blocking := range []bool{true, false} {
		blocking := blocking
		name := "async"
		if blocking {
			name = "blocking"
		}
		b.Run(name, func(b *testing.B) {
			var host float64
			for i := 0; i < b.N; i++ {
				dev := gpu.NewDevice1()
				cfg := core.Config{NTT: ntt.LocalRadix8, MadMod: true, Blocking: blocking, Analytic: true}
				ctx := core.NewContext(params, dev, cfg)
				rlk := fhebench.DummyRelinKey(params)
				a := ctx.NewZeroCt(1, params.MaxLevel(), params.Scale, true)
				r := ctx.MulLinRS(a, a, rlk)
				ctx.Free(r)
				ctx.Wait()
				host = dev.HostTime()
			}
			b.ReportMetric(host, "sim-host-cycles")
		})
	}
}

// BenchmarkAblationRadix sweeps the radix schedule beyond the paper's
// grid (simulated time at the anchor config).
func BenchmarkAblationRadix(b *testing.B) {
	spec := gpu.Device1Spec()
	for _, v := range []ntt.Variant{ntt.LocalRadix4, ntt.LocalRadix8, ntt.LocalRadix16} {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				cycles, _ = fhebench.NTTRun(spec, v, isa.InlineASM, 1, benchAnchor, 8)
			}
			b.ReportMetric(cycles, "sim-cycles")
		})
	}
}

// BenchmarkHostCKKSPipeline measures the client side of the host CKKS
// pipeline (the CPU half of Fig. 1): key generation with one rotation
// key, encode+encrypt and decrypt+decode, at the demo and the benchmark
// parameter sets.
func BenchmarkHostCKKSPipeline(b *testing.B) {
	for _, size := range []struct {
		name string
		spec ParamsSpec
	}{{"demo", ParamsDemo()}, {"bench", ParamsBenchmark()}} {
		b.Run(size.name, func(b *testing.B) {
			params := NewParameters(size.spec)
			kit := GenerateKeys(params, 9, 1)
			v := make([]complex128, params.Slots())
			for i := range v {
				v[i] = complex(0.25, 0)
			}
			ct := kit.Encrypt(v)
			b.Run("keygen", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					GenerateKeys(params, 9, 1)
				}
			})
			b.Run("encrypt", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kit.Encrypt(v)
				}
			})
			b.Run("decrypt", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kit.Decrypt(ct)
				}
			})
		})
	}
}
