# XeHE build/test/bench targets. `make test-race` is the one CI must
# run for the concurrent subsystems (scheduler, memory cache, GPU
# simulator); plain `make test` covers the whole tree.

GO ?= go

.PHONY: all build vet fmt-check test test-race fuzz-smoke bench bench-selftest bench-smoke bench-service bench-cluster bench-graph bench-trace bench-chaos bench-record clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt cleanliness gate: fails listing any file that needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test: build
	$(GO) test ./...

# Race-enabled pass over every package that runs goroutines
# concurrently: the batch scheduler's differential + QoS fairness +
# work-stealing + transfer-pipeline harnesses (now including the
# concurrent Stats/trace-snapshot hammer), the qos policy layer, the
# observability rings + metrics registry, the shared device memory
# cache + staging pool (functional and timing-only), the GPU
# simulator's group runner, the sycl copy-queue event ordering, the
# serial evaluator with the paper's figures on top of it (core and
# fhebench run kernel bodies on the group runner's goroutines;
# affordable since the timing-only figures stopped zeroing buffers),
# and what those bodies share across goroutines: the Galois permutation
# cache on ckks.Parameters (first-use hammer), the poly gather helper
# and the NTT engine with its per-shape plan store; plus the two
# packages that drive the scheduler from outside it: the root package
# (Service / Cluster through the public API and the trace tests) and
# internal/apps (matMul as a job graph on a scheduler and a cluster).
test-race:
	$(GO) test -race . ./internal/apps/... ./internal/sched/... ./internal/qos/... ./internal/obs/... ./internal/memcache/... ./internal/gpu/... ./internal/sycl/... ./internal/core/... ./internal/fhebench/... ./internal/ckks/... ./internal/poly/... ./internal/ntt/...

# Fuzz smoke: every Fuzz* target in the tree (found by name, so a new
# one is picked up without editing this), 5 s each — internal/xmath's
# modular arithmetic against math/big (AddMod, MulMod, HarveyLazy and
# BarrettReduce128 on arbitrary 128-bit inputs), internal/ckks's
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

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# The repo benchmark (BENCHMARK.json, benchmark/) is a Go module of its
# own, so `go test ./...` at the root never reaches it; this runs its
# self-test (tiny shapes, every output check on) in a few seconds.
bench-selftest:
	cd benchmark && $(GO) test ./...

# Fast CI gate: one pass over the scheduler and cluster throughput
# benchmarks plus the machine-readable sweep (which now includes the
# small mixed-class QoS sweep: per-class latency rows under the FIFO
# baseline and WFQ), so a perf-destroying regression (or a broken
# -json contract) fails the pipeline without paying for the full
# benchmark matrix. Also writes a Perfetto-loadable sample trace from
# the same mixed-QoS cluster shape (CI uploads it as an artifact).
bench-smoke:
	$(GO) test -bench 'Benchmark(Service|Cluster)Throughput' -benchtime 50x -run '^$$' .
	$(GO) run ./cmd/xehe-bench -cluster 50 -json -trace trace-sample.json

# Job-graph residency smoke: the chained-vs-graph sweep as JSON rows
# (chains linked by InputFrom vs host round-trips).
# The sweep itself exits non-zero if the two modes' results are not
# bit-identical, so a regression in the device-resident hand-off (or
# its byte-counter contract) fails CI quickly.
bench-graph:
	$(GO) run ./cmd/xehe-bench -graph 48 -json

# Trace-overhead smoke: the tracing-off vs tracing-on rows over the
# 2x Device1 mixed-QoS cluster. The simulated-time rate is identical
# by construction (span recording only reads the clocks); the host
# rate quantifies the recording overhead, which must stay small.
bench-trace:
	$(GO) run ./cmd/xehe-bench -traceoverhead 200 -json

# Fault-recovery smoke: no-fault vs cold kill+addshard vs kill under
# the self-healing supervisor (one warm standby) vs graceful DrainShard
# over a 3-node Device1 cluster (each drill fires at 25%; every variant
# sampled at the median of 3 runs). The sweep exits non-zero unless
# every run's results are bit-identical to the no-fault run, cold
# recovery holds >= 80% and standby recovery >= 90% of the baseline
# simulated throughput (standby at least matching cold — promotion
# skips device construction and warm-up), and the drain replays zero
# jobs, so a regression in surrender/replay, elastic AddShard, standby
# promotion, or draining hand-off fails CI quickly.
bench-chaos:
	$(GO) run ./cmd/xehe-bench -chaos 400 -json

# Record the bench trajectory: the standard 500-job cluster + mixed
# QoS + graph-residency + trace-overhead + fault-recovery sweep,
# machine-readable, written to the repo root (CI uploads it as an
# artifact so the trajectory is preserved per commit).
bench-record:
	$(GO) run ./cmd/xehe-bench -cluster 500 -json > BENCH_cluster.json
	@wc -l BENCH_cluster.json

# Throughput sweep of the concurrent scheduler (jobs/sec at 1, 2, 4
# and 8 workers, host and simulated).
bench-service:
	$(GO) test -bench BenchmarkServiceThroughput -run '^$$' .
	$(GO) run ./cmd/xehe-bench -service 200

# Multi-device cluster sweep (1/2/4x Device1 and the heterogeneous
# Device1+Device2 mix).
bench-cluster:
	$(GO) test -bench BenchmarkClusterThroughput -run '^$$' .
	$(GO) run ./cmd/xehe-bench -cluster 200

clean:
	$(GO) clean ./...
