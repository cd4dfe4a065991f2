// Package xehe is a Go reproduction of "Accelerating Encrypted
// Computing on Intel GPUs" (Zhai et al., IPDPS 2022): a CKKS
// homomorphic-encryption library with a simulated Intel-GPU backend
// covering the paper's full optimization stack — staged/high-radix NTT
// kernels in shared local memory, inline-assembly integer arithmetic,
// fused mad_mod, a device memory cache, an asynchronous execution
// pipeline, and explicit multi-tile submission.
//
// # Quickstart
//
// The public API mirrors the SEAL-style flow of Fig. 1: encode and
// encrypt on the CPU, evaluate on the (simulated) GPU, then decrypt and
// decode on the CPU:
//
//	params := xehe.NewParameters(xehe.ParamsDemo())
//	kit := xehe.GenerateKeys(params, 1, 1, -1) // relin + rotation keys
//	he := xehe.NewGPUEvaluator(params, kit, xehe.Device1, xehe.ConfigOptimized())
//
//	ct := kit.Encrypt(values)
//	res := he.MulRelinRescale(ct, ct)
//	out := kit.Decrypt(res)
//
// # Concurrent service
//
// For serving many independent workloads, Service multiplexes jobs
// over a goroutine worker pool: each worker owns an in-order queue
// pinned to one of the device's tiles, all workers recycle buffers
// through a shared device memory cache, and same-shape jobs are
// coalesced into batches that run as one: one gathered upload on the
// tile's copy engine, one kernel launch per op-chain step covering
// every job's polynomials, one scattered download — prefetched and
// waited on one batch ahead, so the host stalls only at a batch tail
// and copies overlap with compute. A job that ships alone is a batch
// of one on the same path; results are bit-for-bit the same at any
// batch size. Submit blocks when the pipeline is saturated
// (backpressure). A Service is a Cluster (below) of one shard, behind
// the single-device surface:
//
//	svc := xehe.NewService(params, kit, xehe.Device1, xehe.ServiceConfig{Workers: 4})
//	defer svc.Close()
//
//	job := xehe.NewJob(kit.Encrypt(a), kit.Encrypt(b))
//	r := job.MulRelinRescale(0, 1) // value indices: 0, 1 are the inputs
//	job.Rotate(r, 1)               // the last op's result is the output
//
//	fut, err := svc.Submit(job)
//	// ... submit more jobs, from any goroutine ...
//	ct, err := fut.Wait()
//	out := kit.Decrypt(ct)
//
// # Quality of service
//
// Mixed traffic is first-class: every job carries a JobClass
// (Interactive, Batch — the default — or Background, plus any
// user-defined tiers) and optionally a simulated-time deadline, and
// the scheduler dispatches by a pluggable policy — weighted fair
// queuing by default, strict priority or earliest-deadline-first via
// ServiceConfig.Policy / ClusterConfig.Policy — with aging so no
// class ever starves:
//
//	job := xehe.NewJob(ct).WithClass(xehe.Interactive).WithDeadline(0.005)
//	job.MulRelinRescale(0, 0)
//	fut, err := svc.Submit(job)
//	if errors.Is(err, xehe.ErrOverloaded) {
//		// interactive share full: shed load, retry later
//	}
//
// Admission control bounds each class's slice of the pending queue:
// full-share classes (Batch) block Submit when saturated — classic
// backpressure — while partial-share classes (Interactive,
// Background) fail fast with ErrOverloaded instead of queueing
// behind a backlog that already guarantees a blown latency target.
// Stats report per-class completions, deadline hits/misses and
// p50/p99 simulated latency.
//
// # Multi-device cluster
//
// Cluster scales the same Submit/Wait/Close surface across several
// devices — the multi-GPU / heterogeneous-platform direction the paper
// names as future work. Each device is one shard: a full scheduler
// with its own worker pool, tile queues, buffer cache and replicated
// keys (a Service is the one-shard case). A QoS-aware router sends
// latency-sensitive jobs to the shard with the least expected wait and
// everything else to the weighted least-loaded shard, idle shards steal
// queued work from the longest backlog, and a heterogeneous
// Device1+Device2 pair splits a uniform load roughly in proportion to
// their peak GIOPS:
//
//	cl := xehe.NewCluster(params, kit,
//		[]xehe.DeviceKind{xehe.Device1, xehe.Device1, xehe.Device2},
//		xehe.ClusterConfig{WarmBuffers: 16})
//	defer cl.Close()
//
//	fut, err := cl.Submit(job) // routed to whichever shard is least loaded
//	ct, err := fut.Wait()
//
// # Failure domains & fault injection
//
// Cluster shards can live on simulated remote nodes with distinct
// failure domains: ClusterConfig.Nodes assigns each device a node id
// and a network hop (latency plus bandwidth) that is priced on the
// simulated timeline for every wire-format submission, transfer
// payload and completion sync. The cluster is elastic and
// failure-aware — AddShard grows it at runtime, health-checked routing
// steers new work away from sick shards, and the Faults plane injects
// failures for chaos drills: kill a shard mid-batch (its queued jobs
// re-route to open shards and its in-flight jobs replay from host-side
// inputs on a healthy one), kill a whole node, or delay, drop or lose
// network hops:
//
//	cl := xehe.NewCluster(params, kit,
//		[]xehe.DeviceKind{xehe.Device1, xehe.Device1},
//		xehe.ClusterConfig{Nodes: []xehe.NodeSpec{
//			{Node: 0},                         // host-local
//			{Node: 1, LatencyUS: 5, GBps: 12}, // remote node, 5us hop
//		}})
//	defer cl.Close()
//
//	cl.Faults().KillShard(1) // queued work re-routes, in-flight work replays
//	idx, err := cl.AddShard(xehe.Device1, xehe.NodeSpec{Node: 2, LatencyUS: 5, GBps: 12})
//	st := cl.Stats()         // st.Recovered, st.Replayed, st.Killed, st.Health
//
// Recovery can be automatic: ClusterConfig.SelfHeal starts a
// supervisor that replaces killed shards on its own — instantly by
// promoting a pre-built warm spare from the standby pool
// (ClusterConfig.Standbys), or by a rate-limited cold rebuild of the
// dead shard's device kind in its failure domain. A per-job retry
// budget (ClusterConfig.Retry) resolves transient
// failures — a lost network crossing, a shard killed mid-flight
// before its replacement landed — inside the cluster with
// exponential backoff priced on the simulated clock, deadline-aware,
// so callers only ever see errors that would recur. And scale-down
// is graceful: Cluster.DrainShard, the one retirement, retires a
// shard with zero replay — queued work relocates as-is, in-flight
// batches settle in place, and device-resident graph outputs pre-copy
// to the host. A shard leaves rotation once: retiring a killed shard
// and killing a retired one are both no-ops:
//
//	cl := xehe.NewCluster(params, kit,
//		[]xehe.DeviceKind{xehe.Device1, xehe.Device1},
//		xehe.ClusterConfig{
//			SelfHeal: true, Standbys: 1,
//			Retry: xehe.RetryPolicy{MaxAttempts: 3},
//		})
//	cl.Faults().KillShard(0) // standby promoted before the backlog moves
//	cl.DrainShard(1)         // graceful: zero replayed jobs
//	st := cl.Stats()         // st.StandbyPromoted, st.Drained, st.RetryAttempts
//
// Faults live in the timing and routing plane only — payload bytes are
// never corrupted — so every job that completes, re-routed, replayed
// or retried, is still bit-for-bit identical to the serial path
// (pinned by the chaos differential suite in internal/sched). The one
// exception that loses data, FaultPlane.FailHops, surfaces as an
// explicit error (and is exactly what the retry budget absorbs).
//
// # Job graphs with device-resident intermediates
//
// Jobs can consume other jobs' outputs directly on the device:
// Job.InputFrom(fut) adds a dependency edge, extending the value-index
// scheme (a job's own Inputs first, then its dependency outputs in
// InputFrom order, then op results). The scheduler parks the consumer
// until its producers settle, routes it to the shard that ran the
// producer, and hands it the producer's output as a pinned
// device-resident buffer — a producer→consumer edge inside a shard
// costs zero PCIe traffic. An output with registered consumers skips
// its download entirely; after the last consumer takes its reference
// the buffer is recycled and the producer's Wait reports
// ErrResultDiscarded. Call KeepOutput to also download a consumed
// output for the host:
//
//	prod := xehe.NewJob(kit.Encrypt(a), kit.Encrypt(b))
//	prod.MulRelinRescale(0, 1)
//	pf, err := svc.Submit(prod)
//
//	cons := xehe.NewJob(kit.Encrypt(c)) // value 0
//	d := cons.InputFrom(pf)             // value 1: prod's output, device-resident
//	cons.Add(0, d)
//	cf, err := svc.Submit(cons)
//	ct, err := cf.Wait() // only the sink is downloaded
//
// Graph edges compose with everything above — coalescing, QoS
// classes, cluster routing and work stealing (a consumer stolen away
// from its producer's shard rematerializes the value through the host;
// results stay bit-for-bit identical). ServiceStats.GraphJobs and
// ResidentHits/ResidentMisses count the edges and how many resolved
// on-device.
//
// # Observability
//
// A tracing and metrics subsystem (internal/obs) watches the whole
// pipeline. Enable span tracing with ServiceConfig.Trace and export
// the merged timeline — job-lifecycle spans (admit, pending-queue
// residency, batch formation, H2D, per-op chain steps, D2H, settle)
// interleaved with the simulated device's per-tile compute and copy
// command tracks — as Chrome-trace-event JSON, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing:
//
//	svc := xehe.NewService(params, kit, xehe.Device1,
//		xehe.ServiceConfig{Trace: xehe.TraceConfig{Enabled: true}})
//	// ... submit work ...
//	svc.Wait()
//	f, _ := os.Create("trace.json")
//	svc.WriteTrace(f) // process "shard 0": a track per worker, QoS queue and device tile
//
// Spans are stamped with both the simulated clock (the trace
// timeline) and wall clock, and recorded into bounded per-worker ring
// buffers that drop the oldest spans under pressure (TraceCounts
// reports the loss). Tracing only reads the simulated clocks, so
// results and simulated timing are bit-for-bit identical with tracing
// on or off; with the knob off the span sites reduce to a nil check
// (measured via `xehe-bench -sweep trace`, which records tracing-on vs
// -off throughput rows).
//
// Independently of tracing, an always-on typed metrics registry is the
// one place the scheduler counts anything. Service.Metrics and
// Cluster.Metrics snapshot it — counters (per QoS class, as
// "<name>.<class>"), per-class queueing-delay and service-time
// histograms, worker idle/stall attribution, pool gauges — and Stats is
// the same snapshot as a typed struct, so the two cannot disagree. A
// snapshot marshals to JSON and pretty-prints with WriteText; cluster
// snapshots merge the shard registries instrument by instrument.
//
// The correctness of the concurrent and sharded paths is pinned by a
// differential harness (internal/sched): randomized job chains must
// reproduce the serial single-queue pipeline bit-for-bit — regardless
// of which shard executed them, coalesced or fused — and decrypt to
// the plaintext model within CKKS noise. Run it race-enabled with
//
//	go test -race ./internal/sched/...
//
// (or `make test-race`, which also covers the memory cache and the
// GPU simulator).
//
// ARCHITECTURE.md at the repository root maps the full layer stack
// (xehe → sched → qos → core → ntt/poly → gpu/sycl), walks the life
// of a job from Submit to Wait including coalescing and fusion, and
// records where every configuration knob acts.
package xehe

import (
	"io"
	"strconv"

	"xehe/internal/ckks"
	"xehe/internal/core"
	"xehe/internal/gpu"
	"xehe/internal/ntt"
	"xehe/internal/obs"
	"xehe/internal/qos"
	"xehe/internal/sched"
)

// DeviceKind selects one of the two simulated Intel GPUs of the paper.
type DeviceKind int

const (
	// Device1 is the large 2-tile GPU.
	Device1 DeviceKind = iota
	// Device2 is the smaller single-tile GPU.
	Device2
)

// ParamsSpec configures a CKKS instantiation.
type ParamsSpec struct {
	LogN        int // ring degree = 1 << LogN
	Levels      int // RNS chain length
	FirstBits   int
	ScaleBits   int // middle primes ≈ the scale
	SpecialBits int
}

// ParamsDemo returns small, fast parameters (N=4096, 4 levels).
func ParamsDemo() ParamsSpec {
	return ParamsSpec{LogN: 12, Levels: 4, FirstBits: 50, ScaleBits: 40, SpecialBits: 52}
}

// ParamsBenchmark returns the paper's evaluation parameters
// (N=32768, L=8; Section IV-C).
func ParamsBenchmark() ParamsSpec {
	return ParamsSpec{LogN: 15, Levels: 8, FirstBits: 52, ScaleBits: 42, SpecialBits: 54}
}

// Parameters wraps the scheme parameters.
type Parameters struct {
	inner *ckks.Parameters
}

// NewParameters builds CKKS parameters from a spec.
func NewParameters(s ParamsSpec) *Parameters {
	return &Parameters{inner: ckks.NewParameters(1<<s.LogN, s.Levels, s.FirstBits, s.ScaleBits, s.SpecialBits, float64(uint64(1)<<s.ScaleBits))}
}

// Slots returns the number of complex message slots (N/2).
func (p *Parameters) Slots() int { return p.inner.Slots() }

// MaxLevel returns the highest ciphertext level.
func (p *Parameters) MaxLevel() int { return p.inner.MaxLevel() }

// Ciphertext is an encrypted vector of complex values.
type Ciphertext = ckks.Ciphertext

// KeyKit bundles the key material plus CPU-side encoder, encryptor and
// decryptor (the client side of Fig. 1).
type KeyKit struct {
	params *Parameters
	enc    *ckks.Encoder
	encr   *ckks.Encryptor
	decr   *ckks.Decryptor
	rlk    *ckks.RelinKey
	gks    map[int]*ckks.GaloisKey
}

// GenerateKeys creates secret/public/relinearization keys plus Galois
// keys for the given rotations, with a deterministic seed.
func GenerateKeys(params *Parameters, seed int64, rotations ...int) *KeyKit {
	kg := ckks.NewKeyGenerator(params.inner, seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	kit := &KeyKit{
		params: params,
		enc:    ckks.NewEncoder(params.inner),
		encr:   ckks.NewEncryptor(params.inner, pk, seed+1),
		decr:   ckks.NewDecryptor(params.inner, sk),
		rlk:    kg.GenRelinKey(sk),
		gks:    map[int]*ckks.GaloisKey{},
	}
	for _, r := range rotations {
		kit.gks[r] = kg.GenGaloisKey(sk, params.inner.GaloisElement(r))
	}
	return kit
}

// Encrypt encodes and encrypts a complex vector at the top level.
func (k *KeyKit) Encrypt(values []complex128) *Ciphertext {
	pt := k.enc.Encode(values, k.params.inner.Scale, k.params.inner.MaxLevel())
	return k.encr.Encrypt(pt)
}

// Decrypt decrypts and decodes a ciphertext.
func (k *KeyKit) Decrypt(ct *Ciphertext) []complex128 {
	return k.enc.Decode(k.decr.Decrypt(ct))
}

// Config selects the backend optimization level.
type Config = core.Config

// ConfigNaive returns the unoptimized GPU baseline.
func ConfigNaive() Config { return core.Naive() }

// ConfigOptimized returns the paper's full optimization stack:
// radix-8 SLM NTT, inline assembly, fused mad_mod, memory cache, and
// (on multi-tile devices) explicit dual-tile submission.
func ConfigOptimized() Config {
	cfg := core.OptNTTAsmDualTile()
	cfg.MemCache = true
	return cfg
}

// NTT variant re-exports for custom configs.
var (
	NTTNaive   = ntt.NaiveRadix2
	NTTSIMD8x8 = ntt.SIMD8x8
	NTTRadix4  = ntt.LocalRadix4
	NTTRadix8  = ntt.LocalRadix8
	NTTRadix16 = ntt.LocalRadix16
)

// GPUEvaluator evaluates homomorphic circuits on the simulated GPU.
type GPUEvaluator struct {
	params *Parameters
	kit    *KeyKit
	ctx    *core.Context
}

// specFor maps the public device kind to its hardware spec.
func specFor(dev DeviceKind) gpu.DeviceSpec {
	if dev == Device2 {
		return gpu.Device2Spec()
	}
	return gpu.Device1Spec()
}

// deviceFor builds a fresh simulated device for the kind.
func deviceFor(dev DeviceKind) *gpu.Device { return gpu.NewDevice(specFor(dev)) }

// NewGPUEvaluator creates an evaluator on the chosen device.
func NewGPUEvaluator(params *Parameters, kit *KeyKit, dev DeviceKind, cfg Config) *GPUEvaluator {
	return &GPUEvaluator{params: params, kit: kit, ctx: core.NewContext(params.inner, deviceFor(dev), cfg)}
}

// Context exposes the underlying backend context (device clocks,
// queues, cache) for instrumentation.
func (e *GPUEvaluator) Context() *core.Context { return e.ctx }

// SimulatedSeconds returns the simulated wall-clock consumed so far.
func (e *GPUEvaluator) SimulatedSeconds() float64 { return e.ctx.Device.SimulatedSeconds() }

// run uploads inputs, applies op on the device, downloads the result.
func (e *GPUEvaluator) run(op func() *core.Ciphertext, ins ...*core.Ciphertext) *Ciphertext {
	res := op()
	out := e.ctx.Download(res)
	e.ctx.Free(res)
	for _, in := range ins {
		e.ctx.Free(in)
	}
	return out
}

// Add returns a + b.
func (e *GPUEvaluator) Add(a, b *Ciphertext) *Ciphertext {
	da, db := e.ctx.Upload(a), e.ctx.Upload(b)
	return e.run(func() *core.Ciphertext { return e.ctx.Add(da, db) }, da, db)
}

// MulRelin multiplies and relinearizes.
func (e *GPUEvaluator) MulRelin(a, b *Ciphertext) *Ciphertext {
	da, db := e.ctx.Upload(a), e.ctx.Upload(b)
	return e.run(func() *core.Ciphertext { return e.ctx.MulLin(da, db, e.kit.rlk) }, da, db)
}

// MulRelinRescale multiplies, relinearizes and rescales.
func (e *GPUEvaluator) MulRelinRescale(a, b *Ciphertext) *Ciphertext {
	da, db := e.ctx.Upload(a), e.ctx.Upload(b)
	return e.run(func() *core.Ciphertext { return e.ctx.MulLinRS(da, db, e.kit.rlk) }, da, db)
}

// SquareRelinRescale squares, relinearizes and rescales.
func (e *GPUEvaluator) SquareRelinRescale(a *Ciphertext) *Ciphertext {
	da := e.ctx.Upload(a)
	return e.run(func() *core.Ciphertext { return e.ctx.SqrLinRS(da, e.kit.rlk) }, da)
}

// Rotate cyclically rotates the message slots by k (requires a Galois
// key generated for k).
func (e *GPUEvaluator) Rotate(a *Ciphertext, k int) *Ciphertext {
	gk, ok := e.kit.gks[k]
	if !ok {
		panic("xehe: no Galois key for rotation " + strconv.Itoa(k))
	}
	da := e.ctx.Upload(a)
	return e.run(func() *core.Ciphertext { return e.ctx.Rotate(da, k, gk) }, da)
}

// Job is an independent HE workload: encrypted inputs plus a chain (or
// DAG) of evaluation ops. Build it with NewJob and the op methods
// (Add, MulRelin, MulRelinRescale, SquareRelinRescale, Rotate,
// ModSwitch); each returns the value index of its result so later ops
// can reference it. The last op's result is the job's output.
// WithClass and WithDeadline tag the job for QoS dispatch.
type Job = sched.Job

// NewJob starts a job over the given encrypted inputs (value indices
// 0..len(inputs)-1). The job defaults to the Batch class.
func NewJob(inputs ...*Ciphertext) *Job { return sched.NewJob(inputs...) }

// JobClass selects a job's QoS tier (an index into the scheduler's
// class table; set it with Job.WithClass).
type JobClass = qos.ClassID

// The built-in traffic tiers: Interactive is latency-sensitive (high
// weight, expected-wait routing, bounded admission share so overload
// sheds with ErrOverloaded), Batch is the bulk default (full share,
// blocking backpressure), Background is best-effort.
const (
	Interactive = qos.Interactive
	Batch       = qos.Batch
	Background  = qos.Background
)

// ClassSpec describes one traffic tier (name, WFQ weight, strict
// priority, admission share, routing sensitivity). Pass a custom
// table via ServiceConfig.Classes to define your own tiers.
type ClassSpec = qos.Class

// DefaultClasses returns the built-in Interactive/Batch/Background
// class table.
func DefaultClasses() []ClassSpec { return qos.DefaultClasses() }

// SchedPolicy builds the dispatch policy deciding which class's
// backlog runs next; assign one of the Policy* factories (or a custom
// qos.Policy constructor) to ServiceConfig.Policy.
type SchedPolicy = qos.Factory

// The built-in dispatch policies. See internal/qos for the selection
// guide: WFQ (default) keeps every class moving in proportion to its
// weight; strict priority minimizes interactive latency and relies on
// aging to avoid starving batch work; EDF meets every meetable
// deadline on a single worker; FIFO is the class-blind baseline.
var (
	PolicyWFQ            SchedPolicy = qos.WFQ
	PolicyStrictPriority SchedPolicy = qos.StrictPriority
	PolicyEDF            SchedPolicy = qos.EDF
	PolicyFIFO           SchedPolicy = qos.FIFO
)

// ClassStats is the per-class slice of the service counters:
// submissions, completions, failures, admission rejections, deadline
// hits/misses and p50/p99 simulated latency.
type ClassStats = sched.ClassStats

// Pending is the in-flight handle of a submitted job; Wait blocks for
// the result.
type Pending = sched.Future

// ServiceStats is the typed view of a Metrics snapshot: jobs, batches,
// coalescing, gathered transfers and their bytes, per-worker and
// per-class load, latency quantiles and cache hit rates.
type ServiceStats = sched.Stats

// TraceConfig enables span tracing on a Service or Cluster (via
// ServiceConfig.Trace / ClusterConfig.Trace) and bounds its ring
// buffers. The zero value keeps tracing off.
type TraceConfig = sched.TraceConfig

// Metrics is a point-in-time snapshot of the typed metrics registry
// (Service.Metrics / Cluster.Metrics): the counters Stats is a view
// of, per-class queueing-delay and service-time histograms, worker
// idle/stall attribution and pool occupancy gauges. It marshals to
// JSON directly and pretty-prints with WriteText; Get looks up one
// instrument by name (e.g. "sched.jobs_completed").
type Metrics = obs.Snapshot

// MetricsInstrument is one instrument of a Metrics snapshot; histogram
// instruments estimate quantiles via Quantile.
type MetricsInstrument = obs.Instrument

// ToggleOn is true under the name the on/off knobs (TraceConfig.Enabled,
// ServiceConfig.SelfHeal) were first switched on with; both are plain
// bools that default off.
const ToggleOn = true

// ServiceConfig tunes the concurrent service — the one shard of a
// Service, or every shard of a Cluster (as ClusterConfig). Zero values
// select defaults: one worker per device tile, batches of up to 8
// same-shape jobs, and the paper's full optimization stack as the
// backend. Nodes, SelfHeal, Standbys and Retry act on a Cluster only.
type ServiceConfig struct {
	// Workers is the goroutine pool size; workers are pinned
	// round-robin to the device's tiles. Default: the tile count.
	Workers int
	// Deprecated: ignored. Workers pull each batch when they can start
	// it, so there is no per-worker queue to bound.
	QueueDepth int
	// MaxBatch caps how many same-shape jobs are coalesced into one
	// batch — one gathered upload, one kernel launch per op-chain step,
	// one scattered download for all of them (ServiceStats.Coalesced,
	// TransferBatches/BytesH2D/BytesD2H count the sharing; see
	// ARCHITECTURE.md). 1 ships every job as a batch of one. Default 8.
	MaxBatch int
	// PendingCap bounds the pending queue (jobs accepted but not yet
	// dispatched — the pool the QoS policy reorders); class admission
	// shares are fractions of it, and a full-share class's Submit blocks
	// when it is full (backpressure). Default Workers*8*MaxBatch.
	PendingCap int
	// Classes is the QoS class table jobs reference via WithClass.
	// nil selects DefaultClasses() (Interactive/Batch/Background).
	Classes []ClassSpec
	// Policy selects the dispatch policy (PolicyWFQ, the default, or
	// PolicyStrictPriority / PolicyEDF / PolicyFIFO / custom).
	Policy SchedPolicy
	// WarmBuffers pre-populates the device buffer cache with this many
	// working-set-sized buffers at construction, so steady-state jobs
	// never pay a cold driver allocation (runtime allocations
	// synchronize with in-flight work and serialize the pipeline at
	// high worker counts). 0 disables pre-warming.
	WarmBuffers int
	// Backend overrides the per-worker backend configuration; nil
	// selects ConfigOptimized. (A pointer, so the naive baseline —
	// whose Config is the zero value — stays selectable. Tile
	// parallelism comes from the pool, so DualTile is ignored either
	// way.)
	Backend *Config
	// Trace enables span tracing (job-lifecycle spans plus the device
	// command trace; see the Observability section of the package
	// documentation). The zero value keeps tracing off.
	Trace TraceConfig
	// Nodes places each cluster shard in a failure domain (Cluster
	// only; Service ignores it). Entry i applies to device i; missing
	// entries, or an entry with a zero hop, mean a host-local shard.
	// With Nodes absent every shard defaults to its own node. A
	// non-zero hop is priced on the simulated timeline for every
	// wire-format submission, transfer payload and completion sync of
	// that shard.
	Nodes []NodeSpec
	// SelfHeal enables the cluster's supervisor (Cluster only): a
	// control loop that watches the health plane and automatically
	// replaces killed shards — instantly, by promoting a pre-built warm
	// shard from the standby pool (Standbys) when one is stocked, or by
	// a rate-limited cold rebuild of the dead shard's device kind in
	// its own failure domain. Default OFF (the fault plane then only
	// reports; recovery is manual via AddShard).
	SelfHeal bool
	// Standbys sizes the supervisor's warm standby pool (Cluster only,
	// requires SelfHeal): fully constructed, cache-warmed spare shards
	// on fresh nodes, built at construction and restocked after each
	// promotion, so replacing a killed shard is one routing-table
	// append instead of a device build. Default 0 (cold repairs only).
	Standbys int
	// Retry is the per-job retry budget applied across the cluster
	// (Cluster only): jobs that fail transiently — a lost network
	// crossing (gpu link fault), a shard killed mid-flight before a
	// replacement landed — re-execute on an open shard with exponential
	// backoff priced on the simulated clock, instead of surfacing the
	// error. The zero value disables retries.
	Retry RetryPolicy
}

func (sc ServiceConfig) schedConfig() sched.Config {
	backend := ConfigOptimized()
	if sc.Backend != nil {
		backend = *sc.Backend
	}
	return sched.Config{
		Workers:     sc.Workers,
		MaxBatch:    sc.MaxBatch,
		PendingCap:  sc.PendingCap,
		Classes:     sc.Classes,
		Policy:      sc.Policy,
		WarmBuffers: sc.WarmBuffers,
		Core:        backend,
		Trace:       sc.Trace,
		SelfHeal:    sc.SelfHeal,
		Standbys:    sc.Standbys,
		Retry:       sc.Retry,
	}
}

// RetryPolicy is the cluster-wide per-job retry budget
// (ServiceConfig.Retry): MaxAttempts total execution attempts per job
// (first run included; <= 1 disables retries), with exponential
// backoff starting at 50 µs of simulated time and doubling per
// attempt. Retries are deadline-aware — a retry that could not start
// before the job's deadline is not attempted and the caller sees the
// original error — and only transient failures (link faults, shards
// lost mid-replacement) are retried; deterministic errors fail
// immediately.
type RetryPolicy = sched.RetryPolicy

// Service evaluates independent HE jobs concurrently on one simulated
// GPU: Submit from any goroutine, Wait on the returned Pending (or
// Service.Wait for everything), Close to tear down. It is a Cluster of
// one host-local shard that never grows, drains or fails over, behind
// the single-device surface. See the package documentation for the
// execution model.
type Service struct {
	c *Cluster
}

// NewService builds a concurrent evaluation service on the chosen
// device: a one-shard Cluster, with the cluster-only fields of sc
// (Nodes, SelfHeal, Standbys, Retry) ignored.
func NewService(params *Parameters, kit *KeyKit, dev DeviceKind, sc ServiceConfig) *Service {
	sc.Nodes, sc.SelfHeal, sc.Standbys, sc.Retry = nil, false, 0, RetryPolicy{}
	return &Service{c: NewCluster(params, kit, []DeviceKind{dev}, sc)}
}

// Submit validates and enqueues a job. It blocks when the pipeline is
// saturated and returns an error for malformed jobs (bad operand
// indices, level/scale mismatches, missing rotation keys) or after
// Close.
func (s *Service) Submit(job *Job) (*Pending, error) { return s.c.Submit(job) }

// Wait blocks until every job submitted so far has completed.
func (s *Service) Wait() { s.c.Wait() }

// Close drains pending jobs, stops the worker pool and releases the
// device buffer cache. It is idempotent; Submit afterwards returns an
// error.
func (s *Service) Close() { s.c.Close() }

// Stats returns a snapshot of the service counters: the cluster view
// without its one-shard breakdown.
func (s *Service) Stats() ServiceStats { return s.c.Stats().Stats }

// Metrics snapshots the service's typed metrics registry (always on,
// independent of tracing).
func (s *Service) Metrics() Metrics { return s.c.Metrics() }

// WriteTrace exports the service's recorded timeline as
// Chrome-trace-event JSON, one process named "shard 0" (see the
// Observability section of the package documentation). It returns
// ErrTraceDisabled when the service was built without
// ServiceConfig.Trace enabled.
func (s *Service) WriteTrace(w io.Writer) error { return s.c.WriteTrace(w) }

// TraceCounts reports how many spans the service has recorded and how
// many the bounded rings dropped (both zero with tracing off).
func (s *Service) TraceCounts() (recorded, dropped int64) { return s.c.TraceCounts() }

// SimulatedSeconds returns the simulated wall-clock consumed on the
// device so far (the busiest of host and tile timelines).
func (s *Service) SimulatedSeconds() float64 { return s.c.SimulatedSeconds() }

// ResetSimClocks zeroes the simulated device clocks and the QoS state
// derived from them (enqueue-stamp floor, latency sample windows;
// allocation statistics and counter totals are preserved), so
// steady-state throughput and latency can be measured after a warm-up
// phase has populated the buffer cache (cold driver allocations
// serialize the pipeline). Call it only while the service is idle —
// after Wait and before the next Submit — otherwise in-flight timing
// is corrupted.
func (s *Service) ResetSimClocks() { s.c.ResetSimClocks() }

// ClusterStats snapshots the cluster counters: the embedded aggregate
// plus per-shard breakdowns and the router's per-shard job counts.
type ClusterStats = sched.ClusterStats

// Cluster shards independent HE jobs across several simulated devices:
// each device gets its own scheduler (worker pool, tile queues, buffer
// cache, replicated keys), and a front-end router assigns every job to
// the least-loaded shard weighted by device throughput — a fast
// Device1 absorbs proportionally more of a uniform load than a
// Device2. The Submit/Wait/Close surface matches Service, which is a
// Cluster of one shard, so a service scales from one device to a
// heterogeneous cluster by swapping the constructor:
//
//	cl := xehe.NewCluster(params, kit, []xehe.DeviceKind{xehe.Device1, xehe.Device2}, xehe.ClusterConfig{})
//	defer cl.Close()
//
//	fut, err := cl.Submit(job) // any shard may run it; results are identical
//	ct, err := fut.Wait()
//
// Results are bit-for-bit independent of the routing decision (the
// simulated kernels are deterministic), pinned by the cluster
// differential harness in internal/sched.
type Cluster struct {
	cl *sched.Cluster
}

// NodeSpec places one cluster shard in a failure domain: a node id
// (shards sharing a node share fate under FaultPlane.KillNode) plus
// the simulated network hop between the router's host and that node.
// A zero hop (LatencyUS == 0 && GBps == 0) is a host-local attachment;
// a non-zero hop is priced on the shard's device, which charges it on
// every wire crossing.
type NodeSpec struct {
	// Node is the failure-domain id.
	Node int
	// LatencyUS is the one-way wire latency in microseconds, charged
	// per crossing on the simulated timeline (command submission going
	// out, completion sync coming back).
	LatencyUS float64
	// GBps is the link bandwidth applied to H2D/D2H payloads on top of
	// the device's own PCIe leg; 0 models a latency-only hop.
	GBps float64
}

// ClusterConfig tunes the multi-device cluster. The fields are
// ServiceConfig's, applied to every shard independently; in particular
// a zero Workers count defaults to each shard device's own tile count,
// so heterogeneous devices get differently sized pools.
type ClusterConfig = ServiceConfig

// NewCluster builds a cluster service over one fresh simulated device
// per kind (heterogeneous mixes allowed). Key material from kit is
// replicated to every shard at construction. cc.Nodes optionally
// places shards on simulated remote nodes with distinct failure
// domains; without it every shard is host-local on its own node.
func NewCluster(params *Parameters, kit *KeyKit, devs []DeviceKind, cc ClusterConfig) *Cluster {
	specs := make([]sched.ShardSpec, len(devs))
	for i, kind := range devs {
		node := NodeSpec{Node: i}
		if i < len(cc.Nodes) {
			node = cc.Nodes[i]
		}
		specs[i] = shardSpec(kind, node)
	}
	return &Cluster{cl: sched.NewCluster(params.inner, specs, cc.schedConfig(), kit.rlk, kit.gks)}
}

// shardSpec describes one shard to the cluster, which builds the device
// (and, after a kill, its replacement) from it.
func shardSpec(kind DeviceKind, node NodeSpec) sched.ShardSpec {
	return sched.ShardSpec{
		Device: specFor(kind),
		Node:   node.Node,
		Link:   sched.NetLink{LatencySeconds: node.LatencyUS * 1e-6, GBps: node.GBps},
	}
}

// AddShard grows the cluster at runtime with a fresh device of the
// given kind in the given failure domain — elastic scale-up, pairing
// DrainShard's scale-down. The new shard warms its buffer cache per
// the cluster's config and enters the routing tables immediately;
// adding a shard after every existing shard closed (or was killed)
// revives the cluster. It returns the new shard's index, or ErrClosed
// after Close.
func (c *Cluster) AddShard(kind DeviceKind, node NodeSpec) (int, error) {
	return c.cl.AddShard(shardSpec(kind, node))
}

// FaultPlane is the cluster's fault-injection surface (Cluster.Faults)
// for chaos drills: kill shards or whole nodes, delay, drop or lose
// network hops. Faults live in the simulated
// timing and routing plane only — payload bytes are never corrupted,
// so completed results stay bit-identical to the serial path.
type FaultPlane = sched.FaultPlane

// Faults returns the cluster's fault-injection plane.
func (c *Cluster) Faults() *FaultPlane { return c.cl.Faults() }

// ErrClosed is returned by Submit after the service or cluster has
// been closed.
var ErrClosed = sched.ErrClosed

// ErrNoShards is returned by Cluster.Submit when every shard has been
// retired (DrainShard) or killed but the cluster itself is still open.
var ErrNoShards = sched.ErrNoShards

// ErrShardLost is reported by Pending.Wait for a job that was in
// flight on a fail-stopped shard when no open shard remained to
// replay it on (with a healthy shard available — or added via
// AddShard — the job replays there instead and completes normally).
var ErrShardLost = sched.ErrShardLost

// ErrOverloaded is returned by Submit when the job's class has a
// partial admission share (ClassSpec.Share < 1) and its slice of the
// pending queue is full — on a Cluster, only once every open shard
// has shed it. Full-share classes block instead (backpressure).
var ErrOverloaded = sched.ErrOverloaded

// ErrResultDiscarded is returned by Pending.Wait on a job whose output
// was consumed on-device by other jobs (via InputFrom) and therefore
// never downloaded. Call Job.KeepOutput before submitting to retain a
// host copy alongside the device-resident hand-off.
var ErrResultDiscarded = sched.ErrResultDiscarded

// ErrTraceDisabled is returned by WriteTrace on a Service (or Cluster)
// built without TraceConfig.Enabled.
var ErrTraceDisabled = sched.ErrTraceDisabled

// Submit validates and enqueues a job on the least-loaded open shard.
// It blocks when that shard's pipeline is saturated (backpressure) and
// returns an error for malformed jobs, ErrClosed after Close, or
// ErrNoShards when every shard has been retired.
func (c *Cluster) Submit(job *Job) (*Pending, error) { return c.cl.Submit(job) }

// DrainShard gracefully retires shard i — e.g. to scale down, or to take
// a failing device out without stopping the cluster or stranding
// accepted jobs: it leaves the routing tables immediately, its queued
// backlog relocates to the open shards without replay, its in-flight
// batches settle in place, and its device-resident graph outputs are
// pre-copied to the host so consumers on other shards (and late Wait
// calls) keep working — then its scheduler tears down. Compare
// Faults().KillShard (fail-stop: in-flight work is surrendered and
// replayed). Stats().Drained / Migrated count the graceful hand-offs; a
// drain leaves Replayed untouched. Safe under traffic. A shard leaves
// rotation once: on one that was already retired or fail-stopped this
// is a no-op, as is killing a retired shard. Once every shard is
// retired, Submit returns ErrNoShards until AddShard revives the
// cluster.
func (c *Cluster) DrainShard(i int) { c.cl.DrainShard(i) }

// Wait blocks until every job submitted so far has completed on every
// shard.
func (c *Cluster) Wait() { c.cl.Drain() }

// Close drains pending jobs on all shards, stops their worker pools
// and releases their buffer caches. It is idempotent; Submit afterwards
// returns an error.
func (c *Cluster) Close() { c.cl.Close() }

// Stats returns a snapshot of the aggregate and per-shard counters.
func (c *Cluster) Stats() ClusterStats { return c.cl.Stats() }

// Metrics merges every shard's metrics snapshot with the cluster's own
// routing counters (always on, independent of tracing).
func (c *Cluster) Metrics() Metrics { return c.cl.Metrics() }

// WriteTrace exports the cluster's recorded timeline as one
// Chrome-trace process per shard. It returns ErrTraceDisabled when no
// shard was built with tracing enabled.
func (c *Cluster) WriteTrace(w io.Writer) error { return c.cl.WriteTrace(w) }

// TraceCounts sums recorded and dropped span totals over every shard.
func (c *Cluster) TraceCounts() (recorded, dropped int64) { return c.cl.TraceCounts() }

// Shards returns the number of devices in the cluster.
func (c *Cluster) Shards() int { return c.cl.Shards() }

// SimulatedSeconds returns the cluster's simulated wall-clock: the
// busiest shard's timeline (the devices run in parallel).
func (c *Cluster) SimulatedSeconds() float64 { return c.cl.SimulatedSeconds() }

// ResetSimClocks zeroes every shard's simulated clocks; call it only
// while the cluster is idle (see Service.ResetSimClocks).
func (c *Cluster) ResetSimClocks() { c.cl.ResetSimClocks() }
