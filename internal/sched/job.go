// Package sched is a concurrent batch scheduler for the XeHE backend:
// it multiplexes many independent HE workloads (Mul/Relin/Rescale/
// Rotate chains) across multiple queues and tiles of one simulated GPU
// using a goroutine worker pool, and — via Cluster — shards them
// across several devices behind a weighted least-loaded router.
//
// Design (extending the paper's single-stream pipeline of Fig. 2 to a
// serving scenario):
//
//   - A scheduler runs on one simulated GPU (its device, buffer cache
//     and clocks); a Cluster builds one
//     scheduler per ShardSpec, which is plain data. Each worker owns
//     one in-order queue pinned to a tile (round-robin over the
//     device's tiles) and a private core.Context, so the asynchronous
//     in-order pipeline state never crosses goroutines.
//   - All workers share one device memory cache (internal/memcache),
//     so buffers freed by one job are recycled by the next regardless
//     of which worker runs it — the Fig. 11 cache applied fleet-wide.
//   - Submitted jobs wait in per-class queues (internal/qos: job
//     classes with weights, priorities, admission shares and optional
//     simulated-time deadlines). Whenever a worker has room, a
//     pluggable qos.Policy — weighted fair queuing by default, strict
//     priority or earliest-deadline-first as alternatives, all with
//     aging-based starvation protection — decides which class's head
//     runs next, so a late interactive job overtakes a queued batch
//     backlog instead of waiting behind it.
//   - The dispatcher coalesces jobs of identical shape (same input
//     levels and op chain, hence identical kernel launch sequences)
//     from the chosen class's queue into batches. A batch uploads
//     every job's inputs in one gathered copy, runs the shared kernel
//     chain without host synchronization and downloads the results in
//     one scattered copy: the asynchronous window of Fig. 2 widens
//     from one job to the whole batch, and the host waits once, at the
//     batch tail, after the next batch's kernels are already in
//     flight.
//   - The worker walks the batch's shared op chain step-at-a-time and
//     issues each step as one launch over every job's polynomials (an
//     ntt.BatchView per NTT sequence, one jobs × components × N
//     elementwise kernel otherwise), so launch and submission overhead
//     is paid once per step per batch instead of once per job; a job
//     that ships alone is the batch of one. Results are bit-for-bit
//     the same at any batch size; Stats counts shared vs lone steps
//     and per-class coalescing effectiveness.
//   - Queues are bounded per class (admission control): a class with
//     a full queue share blocks Submit (backpressure), while a class
//     with a partial share sheds over-limit jobs with ErrOverloaded —
//     latency-sensitive traffic fails fast instead of queueing behind
//     a backlog that already guarantees a blown target.
//   - Cluster puts one full scheduler on each of several devices
//     (heterogeneous mixes allowed); latency-sensitive classes route
//     to the shard with the least expected wait (outstanding work /
//     throughput weight), the rest to the weighted least-loaded
//     shard, and idle shards steal queued jobs from the longest
//     backlog. The simulated kernels are deterministic, so results
//     are bit-identical regardless of which shard ran a job.
package sched

import (
	"fmt"
	"strconv"

	"xehe/internal/ckks"
	"xehe/internal/qos"
)

// OpCode identifies one homomorphic evaluation routine of a job chain.
// The set mirrors the device routines of internal/core (Figs. 5/16/18).
type OpCode int

const (
	// OpAdd computes v[A] + v[B].
	OpAdd OpCode = iota
	// OpMulRelin computes v[A] * v[B], relinearized (no rescale).
	OpMulRelin
	// OpMulRelinRescale computes v[A] * v[B], relinearized and
	// rescaled one level down.
	OpMulRelinRescale
	// OpSquareRelinRescale computes v[A]^2, relinearized and rescaled.
	OpSquareRelinRescale
	// OpRotate cyclically rotates the slots of v[A] by K (requires a
	// Galois key for K).
	OpRotate
	// OpModSwitch drops the last RNS component of v[A] (level - 1).
	OpModSwitch
)

var opNames = map[OpCode]string{
	OpAdd: "Add", OpMulRelin: "MulRelin", OpMulRelinRescale: "MulRelinRS",
	OpSquareRelinRescale: "SqrRelinRS", OpRotate: "Rotate", OpModSwitch: "ModSwitch",
}

func (c OpCode) String() string {
	if s, ok := opNames[c]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(c))
}

// Op is one step of a job. A and B index the job's value list: entries
// 0..len(Inputs)-1 are the host inputs, entries len(Inputs)..
// len(Inputs)+len(Deps)-1 are the dependency inputs (outputs of other
// jobs, see InputFrom), and entry len(Inputs)+len(Deps)+i is the
// result of op i. K is the rotation amount for OpRotate.
type Op struct {
	Code OpCode
	A, B int
	K    int
}

// Job is one HE workload: encrypted inputs plus a chain (or DAG) of
// evaluation ops over them. The result of the last op is the job's
// output. Inputs may be host ciphertexts or — via InputFrom — the
// outputs of previously submitted jobs, forming a job graph whose
// intermediate results stay device-resident. Jobs are immutable once
// submitted.
type Job struct {
	Inputs []*ckks.Ciphertext
	// Deps are dependency inputs: futures of previously submitted jobs
	// whose outputs this job consumes. They occupy value indices
	// len(Inputs)..len(Inputs)+len(Deps)-1, after the host inputs.
	Deps []*Future
	Ops  []Op
	// Class is the QoS tier the job dispatches under (an index into
	// the scheduler's class table; qos.Batch for the zero value, the
	// blocking-backpressure bulk tier).
	Class qos.ClassID
	// Deadline is the job's latency target in simulated seconds,
	// relative to submission; 0 means none. Deadline-aware policies
	// (EDF) order by it, and per-class stats count hits and misses.
	Deadline float64
	// keep forces a host download of the output even when consumers
	// exist (see KeepOutput).
	keep bool
}

// NewJob starts a job over the given encrypted inputs.
func NewJob(inputs ...*ckks.Ciphertext) *Job {
	return &Job{Inputs: inputs, Class: qos.Batch}
}

// InputFrom adds the output of a previously submitted job as an input
// and returns its value index. The producing job's output stays
// device-resident until its last consumer finishes, so the edge costs
// no PCIe traffic when both jobs run on the same shard. Producers must
// be submitted before their consumers reference them (futures only
// exist after Submit, so graphs are acyclic by construction).
func (j *Job) InputFrom(f *Future) int {
	j.Deps = append(j.Deps, f)
	return len(j.Inputs) + len(j.Deps) - 1
}

// KeepOutput marks the job's output for host download even if other
// jobs consume it. Without it, a consumed output skips the download
// and its future's Wait materializes the result on demand (or reports
// ErrResultDiscarded once the residency has been released). Chainable.
func (j *Job) KeepOutput() *Job {
	j.keep = true
	return j
}

// WithClass sets the job's QoS class and returns the job (chainable).
func (j *Job) WithClass(c qos.ClassID) *Job {
	j.Class = c
	return j
}

// WithDeadline sets the job's relative simulated-time deadline in
// seconds and returns the job (chainable). d <= 0 clears it.
func (j *Job) WithDeadline(d float64) *Job {
	if d < 0 {
		d = 0
	}
	j.Deadline = d
	return j
}

// push appends an op and returns the value index of its result.
func (j *Job) push(op Op) int {
	j.Ops = append(j.Ops, op)
	return len(j.Inputs) + len(j.Deps) + len(j.Ops) - 1
}

// Add appends v[a] + v[b] and returns the result's value index.
func (j *Job) Add(a, b int) int { return j.push(Op{Code: OpAdd, A: a, B: b}) }

// MulRelin appends v[a] * v[b] (relinearized) and returns its index.
func (j *Job) MulRelin(a, b int) int { return j.push(Op{Code: OpMulRelin, A: a, B: b}) }

// MulRelinRescale appends v[a] * v[b] (relinearized, rescaled).
func (j *Job) MulRelinRescale(a, b int) int {
	return j.push(Op{Code: OpMulRelinRescale, A: a, B: b})
}

// SquareRelinRescale appends v[a]^2 (relinearized, rescaled).
func (j *Job) SquareRelinRescale(a int) int {
	return j.push(Op{Code: OpSquareRelinRescale, A: a})
}

// Rotate appends a cyclic slot rotation of v[a] by k.
func (j *Job) Rotate(a, k int) int { return j.push(Op{Code: OpRotate, A: a, K: k}) }

// ModSwitch appends a modulus switch of v[a] one level down.
func (j *Job) ModSwitch(a int) int { return j.push(Op{Code: OpModSwitch, A: a}) }

// valueMeta tracks the (level, scale) a value will have on device, used
// both by validation and by shape hashing.
type valueMeta struct {
	level int
	scale float64
}

// trace symbolically executes the job against the given parameters,
// returning the meta of every value, or an error for malformed chains
// (bad indices, level or scale mismatches, rescaling at level 0).
// Scale tracking performs the same arithmetic as the device routines
// (products, divided by the dropped modulus on rescale), so the Add
// scale check here accepts exactly what would run cleanly.
func (j *Job) trace(p *ckks.Parameters) ([]valueMeta, error) {
	if len(j.Inputs)+len(j.Deps) == 0 {
		return nil, fmt.Errorf("sched: job has no inputs")
	}
	if len(j.Ops) == 0 {
		return nil, fmt.Errorf("sched: job has no ops")
	}
	metas := make([]valueMeta, 0, len(j.Inputs)+len(j.Deps)+len(j.Ops))
	maxLevel := p.MaxLevel()
	for i, in := range j.Inputs {
		if in == nil || len(in.Value) == 0 {
			return nil, fmt.Errorf("sched: input %d is nil or empty", i)
		}
		if in.Level < 0 || in.Level > maxLevel {
			return nil, fmt.Errorf("sched: input %d at level %d (parameters support 0..%d)", i, in.Level, maxLevel)
		}
		// The device routines index polynomials by level and ring
		// degree; inconsistent inputs (built under other parameters,
		// or with a tampered Level) would panic inside kernel bodies,
		// on goroutines where no recover can catch them.
		if len(in.Value) != 2 {
			return nil, fmt.Errorf("sched: input %d has degree %d; jobs take fresh degree-2 ciphertexts", i, len(in.Value)-1)
		}
		for c, pv := range in.Value {
			if pv == nil || pv.N != p.N {
				return nil, fmt.Errorf("sched: input %d component %d has ring degree mismatch with the scheduler's parameters", i, c)
			}
			if pv.Components() < in.Level+1 {
				return nil, fmt.Errorf("sched: input %d component %d has %d RNS components but level %d needs %d", i, c, pv.Components(), in.Level, in.Level+1)
			}
		}
		metas = append(metas, valueMeta{level: in.Level, scale: in.Scale})
	}
	for i, f := range j.Deps {
		if f == nil {
			return nil, fmt.Errorf("sched: dependency input %d is nil", i)
		}
		m, err := f.outputMeta()
		if err != nil {
			return nil, fmt.Errorf("sched: dependency input %d: %w", i, err)
		}
		if m.level < 0 || m.level > maxLevel {
			return nil, fmt.Errorf("sched: dependency input %d at level %d (parameters support 0..%d)", i, m.level, maxLevel)
		}
		metas = append(metas, m)
	}
	check := func(idx, have int) (valueMeta, error) {
		if idx < 0 || idx >= have {
			return valueMeta{}, fmt.Errorf("sched: operand %d out of range (have %d values)", idx, have)
		}
		return metas[idx], nil
	}
	for i, op := range j.Ops {
		a, err := check(op.A, len(metas))
		if err != nil {
			return nil, fmt.Errorf("op %d (%v): %w", i, op.Code, err)
		}
		var res valueMeta
		switch op.Code {
		case OpAdd, OpMulRelin, OpMulRelinRescale:
			b, err := check(op.B, len(metas))
			if err != nil {
				return nil, fmt.Errorf("op %d (%v): %w", i, op.Code, err)
			}
			if a.level != b.level {
				return nil, fmt.Errorf("op %d (%v): level mismatch %d vs %d", i, op.Code, a.level, b.level)
			}
			switch op.Code {
			case OpAdd:
				if diff := a.scale - b.scale; diff > a.scale*1e-9 || diff < -a.scale*1e-9 {
					return nil, fmt.Errorf("op %d (Add): scale mismatch %g vs %g", i, a.scale, b.scale)
				}
				res = a
			case OpMulRelin:
				res = valueMeta{level: a.level, scale: a.scale * b.scale}
			case OpMulRelinRescale:
				if a.level == 0 {
					return nil, fmt.Errorf("op %d (MulRelinRS): cannot rescale at level 0", i)
				}
				res = valueMeta{level: a.level - 1, scale: a.scale * b.scale / float64(p.Basis.Moduli[a.level].Value)}
			}
		case OpSquareRelinRescale:
			if a.level == 0 {
				return nil, fmt.Errorf("op %d (SqrRelinRS): cannot rescale at level 0", i)
			}
			res = valueMeta{level: a.level - 1, scale: a.scale * a.scale / float64(p.Basis.Moduli[a.level].Value)}
		case OpRotate:
			res = a
		case OpModSwitch:
			if a.level == 0 {
				return nil, fmt.Errorf("op %d (ModSwitch): cannot mod-switch at level 0", i)
			}
			res = valueMeta{level: a.level - 1, scale: a.scale}
		default:
			return nil, fmt.Errorf("op %d: unknown op code %d", i, int(op.Code))
		}
		metas = append(metas, res)
	}
	return metas, nil
}

// Validate checks the job chain for structural errors before it is
// admitted: operand indices in range, matching levels, Add scale
// compatibility, and no rescale/mod-switch below level 0.
func (j *Job) Validate(p *ckks.Parameters) error {
	_, err := j.trace(p)
	return err
}

// ShapeKey returns a batching key: two jobs with equal keys have
// identical input levels and op chains, hence submit the identical
// sequence of kernel shapes (same NTT sizes, same component counts).
// The dispatcher coalesces same-key jobs into one batch. Fields are
// encoded in full (not truncated), so distinct rotation amounts or
// operand indices never collide. Dependency inputs are marked with a
// distinct tag ('d' + output level), so a batch never mixes a host
// input with a device-resident one at the same value index — the two
// stage through different paths.
func (j *Job) ShapeKey() string {
	key := make([]byte, 0, 8+6*(len(j.Inputs)+len(j.Deps))+12*len(j.Ops))
	for _, in := range j.Inputs {
		key = append(key, 'i')
		key = strconv.AppendInt(key, int64(in.Level), 10)
		key = append(key, ',')
		key = strconv.AppendInt(key, int64(len(in.Value)), 10)
		key = append(key, ';')
	}
	for _, f := range j.Deps {
		key = append(key, 'd')
		if m, err := f.outputMeta(); f != nil && err == nil {
			key = strconv.AppendInt(key, int64(m.level), 10)
		} else {
			key = append(key, '?') // invalid dep; Submit will reject it
		}
		key = append(key, ';')
	}
	for _, op := range j.Ops {
		key = strconv.AppendInt(key, int64(op.Code), 10)
		key = append(key, ',')
		key = strconv.AppendInt(key, int64(op.A), 10)
		key = append(key, ',')
		key = strconv.AppendInt(key, int64(op.B), 10)
		key = append(key, ',')
		key = strconv.AppendInt(key, int64(op.K), 10)
		key = append(key, ';')
	}
	return string(key)
}
