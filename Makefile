# XeHE build/test/bench targets. `make test-race` is the one CI must
# run for the concurrent subsystems (scheduler, memory cache, GPU
# simulator); plain `make test` covers the whole tree.

GO ?= go

.PHONY: all build vet fmt-check size test bench-check test-race fallback stress fuzz-smoke bench-smoke bench-selftest bench-sweeps clean

all: build test

build:
	$(GO) build ./...

# The repo benchmark (benchmark/) is a module of its own, so ./... at
# the root does not reach it: it is vetted too, so that a change to the
# root API that breaks it fails here rather than at bench-selftest.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

# gofmt cleanliness gate: fails listing any file that needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Lines of Go outside benchmark/, non-test and test, per package and in
# total: the two numbers a refactor is accepted on (ROADMAP, "a smaller
# wc -l"), so CI prints them.
size:
	@find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs wc -l | awk ' \
		BEGIN { printf "%-28s %8s %8s\n", "package", "non-test", "test" } \
		$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); seen[d] = 1; \
			if ($$2 ~ /_test\.go$$/) t[d] += $$1; else n[d] += $$1 } \
		END { for (d in seen) { printf "%-28s %8d %8d\n", d, n[d], t[d] | "sort"; N += n[d]; T += t[d] } \
			close("sort"); printf "%-28s %8d %8d\n", "total", N, T }'

test: build
	$(GO) test ./...

# The exact-model gates, about a second of test time: every paper
# figure against its golden file (TestFigures), the timing-only
# evaluator and scheduler as faithful twins of the functional ones, the
# client's keys, ciphertexts and decodes against recorded hashes, and
# a one-worker Service's simulated clock and Batch p50/p99 on each
# device against recorded constants (TestOneWorkerServiceIsPinned).
# A refactor that must not move a number runs this: green means no
# simulated clock, figure or client bit moved.
bench-check:
	$(GO) test -count=1 -run '^(TestFigures|TestTimingOnlyIsAFaithfulTwin|TestTimingOnlySchedulerIsATwin|TestClientBitIdentity|TestOneWorkerServiceIsPinned)$$' . ./cmd/xehe-bench ./internal/fhebench ./internal/sched ./internal/ckks

# Race-enabled pass over every package that runs goroutines
# concurrently: the batch scheduler's differential + QoS fairness +
# work-stealing + transfer-pipeline harnesses (now including the
# concurrent Stats/trace-snapshot hammer), the qos policy layer, the
# observability rings + metrics registry, the shared device memory
# cache (functional and timing-only), the GPU
# simulator's group runner, the sycl copy-queue event ordering, the
# serial evaluator with the paper's figures on top of it (core and
# fhebench run kernel bodies on the group runner's goroutines;
# affordable since the timing-only figures stopped zeroing buffers),
# and what those bodies share across goroutines: the Galois permutation
# cache on ckks.Parameters (first-use hammer), the poly gather helper
# and the NTT engine with its per-shape plan store; plus the two
# packages that drive the scheduler from outside it: the root package
# (Service — a one-shard Cluster — and Cluster through the public API,
# and the trace tests) and internal/apps (matMul as a job graph on a
# one-shard and a two-shard cluster).
test-race:
	$(GO) test -race . ./internal/apps/... ./internal/sched/... ./internal/qos/... ./internal/obs/... ./internal/memcache/... ./internal/gpu/... ./internal/sycl/... ./internal/core/... ./internal/fhebench/... ./internal/ckks/... ./internal/poly/... ./internal/ntt/...

# The Go loops behind the AVX-512 bodies and their IFMA family — the
# NTT rounds (internal/ntt/vector_amd64.s), and the key switch's inner
# product and row reductions and the elementwise kernels' rows
# (internal/xmath/vector_amd64.s): the packages whose results ride on
# them, tested with both vector families compiled out by the purego
# tag, and the whole tree vetted for arm64, where they do not exist.
fallback:
	$(GO) test -tags purego ./internal/xmath ./internal/ntt ./internal/poly ./internal/ckks ./internal/core
	GOARCH=arm64 $(GO) vet ./...

# The recovery plane's tests — kills, drains, retries, self-healing,
# elastic growth, shard retirement, the shard lifecycle table, and
# every scenario row that kills, degrades or retires a shard
# (scenario_test.go names them so this pattern selects them) — ten
# times over on one and on two CPUs: they race submitters and the
# control loop against workers, and a race that loses once in fifteen
# loaded runs shows here as a count instead of a flaky CI run elsewhere.
# The second line does the same for the dispatcher and the held
# coalescing rows: a worker pulls its batches under the scheduler lock
# and sleeps on a condition variable, so a lost wake-up shows as a
# wedged or miscounted run there. The third runs the row-order holds
# (gpu.Queue.Hold, core's row chains, a launch lost inside one) at one
# and two CPUs: the group runner's one-goroutine branch runs only at
# -cpu 1, and tier-1 runs on two.
stress:
	$(GO) test ./internal/sched -run 'Chaos|SelfHeal|Kill|Drain|Retry|AddShard|Lifecycle' -count 10 -cpu 1,2
	$(GO) test ./internal/sched -run 'Dispatcher|Held|Coalesc|Ragged' -count 10 -cpu 1,2
	$(GO) test ./internal/gpu ./internal/core -run 'Held|Nested|LostOnTheWire|FreeInside' -count 10 -cpu 1,2

# Fuzz smoke: every Fuzz* target in the tree (found by name, so a new
# one is picked up without editing this), 5 s each — internal/xmath's
# modular arithmetic against math/big (AddMod, MulMod, HarveyLazy and
# BarrettReduce128 on arbitrary 128-bit inputs) and its row bodies
# against the Go ones, each with the IFMA bodies on and off
# (FuzzInnerProductPair, FuzzReduceRow, FuzzSubMulRow, FuzzTensorRow,
# FuzzMulAddRow, FuzzAddRow), internal/ntt's AVX-512
# radix-8 rounds against the Go rounds (FuzzRound8), internal/rns's exact
# CRT composition to float64 against math/big, internal/ckks's
# ReadCiphertext, the boundary that accepts outside bytes, and
# internal/sched's ValidateJob, the one that accepts outside structure
# (what validation admits must run on the serial path). `go test -fuzz`
# takes one target and one package per run. Minimization is off: it is spent on
# inputs that merely add coverage, and shrinking one 64 KB ciphertext
# byte by byte eats the whole budget (7 vs 20,000 execs/s); a crasher is
# still reported and written to testdata/ unminimized.
fuzz-smoke:
	@grep -rHoE --include='*_test.go' --exclude-dir=benchmark '^func Fuzz[A-Za-z0-9_]*' . | while IFS=: read -r file fn; do \
		echo "fuzz $$(dirname $$file) $${fn#func }"; \
		$(GO) test -run '^$$' -fuzz "^$${fn#func }\$$" -fuzztime 5s -fuzzminimizetime 0s $$(dirname $$file) || exit 1; \
	done

# Benchmark smoke: every Benchmark* in the tree (outside the benchmark
# module) run once, no tests — about 25 s with the compile. The
# micro-benchmarks a change cites as layer evidence (the NTT engine's
# ns/butterfly, the xmath rows) then keep compiling and running.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The repo benchmark (BENCHMARK.json, benchmark/) is a Go module of its
# own, so `go test ./...` at the root never reaches it; this runs its
# self-test (tiny shapes, every output check on) in a few seconds.
bench-selftest:
	cd benchmark && $(GO) test ./...

# The serving sweeps (service, cluster, mixed, graph, trace, chaos) from
# xehe-bench's one scenario table: JSON rows to sweeps.jsonl, a summary
# per scenario on stderr, and the trace sweep's tracing-on timeline as a
# Perfetto-loadable sample (CI uploads both). It exits non-zero when
# something that repeats on every run does not hold — a job lost or
# failed, results not bit-identical across graph modes or across the
# chaos drills, graph mode not moving fewer PCIe bytes, a drill that did
# not run once or whose replacement shard never served, a drain that
# replayed. Rates and ratios are single draws and are printed, not
# gated (ARCHITECTURE.md, "Sweeps").
bench-sweeps:
	$(GO) run ./cmd/xehe-bench -sweep all -jobs 200 -trace trace-sample.json > sweeps.jsonl
	@wc -l sweeps.jsonl

clean:
	$(GO) clean ./...
