package sched

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"xehe/internal/ckks"
	"xehe/internal/core"
	"xehe/internal/gpu"
	"xehe/internal/qos"
)

// Harness generates randomized HE job scenarios and provides the
// serial reference path for differential testing: the same job is run
// through the concurrent scheduler and through a plain single-queue
// core.Context, and both the raw ciphertexts (which must match
// exactly — the simulated kernels are deterministic) and the decrypted
// values (which must match the plaintext model within CKKS noise) are
// compared.
type Harness struct {
	Params    *ckks.Parameters
	Rotations []int

	enc  *ckks.Encoder
	encr *ckks.Encryptor
	decr *ckks.Decryptor
	rlk  *ckks.RelinKey
	gks  map[int]*ckks.GaloisKey

	serial *core.Context
}

// NewHarness generates key material (deterministically from seed) for
// the given rotations and builds the serial reference context on a
// fresh instance of the paper's Device1 with the full optimization
// stack.
func NewHarness(params *ckks.Parameters, seed int64, rotations ...int) *Harness {
	kg := ckks.NewKeyGenerator(params, seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	h := &Harness{
		Params:    params,
		Rotations: append([]int(nil), rotations...),
		enc:       ckks.NewEncoder(params),
		encr:      ckks.NewEncryptor(params, pk, seed+1),
		decr:      ckks.NewDecryptor(params, sk),
		rlk:       kg.GenRelinKey(sk),
		gks:       map[int]*ckks.GaloisKey{},
	}
	for _, r := range rotations {
		h.gks[r] = kg.GenGaloisKey(sk, params.GaloisElement(r))
	}
	cfg := core.OptNTTAsm()
	cfg.MemCache = true
	h.serial = core.NewContext(params, gpu.NewDevice1(), cfg)
	return h
}

// RelinKey returns the harness relinearization key.
func (h *Harness) RelinKey() *ckks.RelinKey { return h.rlk }

// GaloisKeys returns the harness rotation keys.
func (h *Harness) GaloisKeys() map[int]*ckks.GaloisKey { return h.gks }

// Encrypt encodes and encrypts a vector at the top level.
func (h *Harness) Encrypt(values []complex128) *ckks.Ciphertext {
	pt := h.enc.Encode(values, h.Params.Scale, h.Params.MaxLevel())
	return h.encr.Encrypt(pt)
}

// Decrypt decrypts and decodes a ciphertext.
func (h *Harness) Decrypt(ct *ckks.Ciphertext) []complex128 {
	return h.enc.Decode(h.decr.Decrypt(ct))
}

// Case is one randomized scenario: a job plus the plaintext-model
// expectation for its output slots.
type Case struct {
	Job      *Job
	Expected []complex128
}

// genValue tracks the plaintext model of one job value during
// generation.
type genValue struct {
	meta valueMeta
	pt   []complex128
}

// RandomCase builds one random job: 1-3 fresh encrypted inputs
// followed by 1..maxOps ops drawn from the applicable set at each
// step (level, scale and key constraints respected by construction).
// The plaintext model is evaluated alongside.
func (h *Harness) RandomCase(rng *rand.Rand, maxOps int) *Case {
	slots := h.Params.Slots()
	nIn := 1 + rng.Intn(3)
	job := &Job{}
	var vals []genValue
	for i := 0; i < nIn; i++ {
		pt := make([]complex128, slots)
		for j := range pt {
			pt[j] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
		job.Inputs = append(job.Inputs, h.Encrypt(pt))
		vals = append(vals, genValue{
			meta: valueMeta{level: h.Params.MaxLevel(), scale: h.Params.Scale},
			pt:   pt,
		})
	}
	nOps := 1 + rng.Intn(maxOps)
	for len(job.Ops) < nOps {
		op, ok := h.randomOp(rng, vals)
		if !ok {
			break // no applicable op left (levels exhausted)
		}
		job.Ops = append(job.Ops, op)
		vals = append(vals, applyModel(h.Params, vals, op, slots))
	}
	if len(job.Ops) == 0 {
		// Always produce at least one op; Add with itself is always legal.
		op := Op{Code: OpAdd, A: 0, B: 0}
		job.Ops = append(job.Ops, op)
		vals = append(vals, applyModel(h.Params, vals, op, slots))
	}
	return &Case{Job: job, Expected: vals[len(vals)-1].pt}
}

// RandomQoS decorates a job with a random class and (half the time) a
// random simulated-time deadline, spanning generous targets down to
// unmeetable ones — deadline outcomes only feed stats, never results,
// so the differential comparison is unaffected.
func (h *Harness) RandomQoS(rng *rand.Rand, job *Job) {
	job.WithClass(qos.ClassID(rng.Intn(3)))
	if rng.Intn(2) == 0 {
		job.WithDeadline(math.Pow(10, -6+5*rng.Float64())) // 1µs .. 0.1s
	}
}

// mulSafe reports whether a value's scale is still near the base scale,
// the precondition for multiplying it again without exhausting the
// modulus budget.
func mulSafe(p *ckks.Parameters, m valueMeta) bool {
	return m.scale <= p.Scale*2
}

// randomOp draws one applicable op over the current values, or reports
// that none applies.
func (h *Harness) randomOp(rng *rand.Rand, vals []genValue) (Op, bool) {
	type cand struct {
		op Op
		w  int // selection weight
	}
	var cands []cand
	for a := range vals {
		ma := vals[a].meta
		for b := range vals {
			mb := vals[b].meta
			if ma.level != mb.level {
				continue
			}
			diff := ma.scale - mb.scale
			if diff < ma.scale*1e-9 && diff > -ma.scale*1e-9 {
				cands = append(cands, cand{Op{Code: OpAdd, A: a, B: b}, 2})
			}
			if mulSafe(h.Params, ma) && mulSafe(h.Params, mb) {
				cands = append(cands, cand{Op{Code: OpMulRelin, A: a, B: b}, 1})
				if ma.level > 0 {
					cands = append(cands, cand{Op{Code: OpMulRelinRescale, A: a, B: b}, 3})
				}
			}
		}
		if ma.level > 0 && mulSafe(h.Params, ma) {
			cands = append(cands, cand{Op{Code: OpSquareRelinRescale, A: a}, 2})
		}
		if ma.level > 0 {
			cands = append(cands, cand{Op{Code: OpModSwitch, A: a}, 1})
		}
		for _, k := range h.Rotations {
			cands = append(cands, cand{Op{Code: OpRotate, A: a, K: k}, 2})
		}
	}
	if len(cands) == 0 {
		return Op{}, false
	}
	total := 0
	for _, c := range cands {
		total += c.w
	}
	pick := rng.Intn(total)
	for _, c := range cands {
		pick -= c.w
		if pick < 0 {
			return c.op, true
		}
	}
	return cands[len(cands)-1].op, true
}

// applyModel evaluates one op on the plaintext model and symbolic meta.
func applyModel(p *ckks.Parameters, vals []genValue, op Op, slots int) genValue {
	a := vals[op.A]
	out := genValue{pt: make([]complex128, slots)}
	switch op.Code {
	case OpAdd:
		b := vals[op.B]
		for i := range out.pt {
			out.pt[i] = a.pt[i] + b.pt[i]
		}
		out.meta = a.meta
	case OpMulRelin, OpMulRelinRescale:
		b := vals[op.B]
		for i := range out.pt {
			out.pt[i] = a.pt[i] * b.pt[i]
		}
		out.meta = valueMeta{level: a.meta.level, scale: a.meta.scale * b.meta.scale}
		if op.Code == OpMulRelinRescale {
			out.meta.level--
			out.meta.scale /= float64(p.Basis.Moduli[a.meta.level].Value)
		}
	case OpSquareRelinRescale:
		for i := range out.pt {
			out.pt[i] = a.pt[i] * a.pt[i]
		}
		out.meta = valueMeta{
			level: a.meta.level - 1,
			scale: a.meta.scale * a.meta.scale / float64(p.Basis.Moduli[a.meta.level].Value),
		}
	case OpRotate:
		for i := range out.pt {
			out.pt[i] = a.pt[((i+op.K)%slots+slots)%slots] // negative k rotates the other way
		}
		out.meta = a.meta
	case OpModSwitch:
		copy(out.pt, a.pt)
		out.meta = valueMeta{level: a.meta.level - 1, scale: a.meta.scale}
	}
	return out
}

// RunSerial executes a job alone on the harness's serial reference
// context — one queue, per-component uploads, the chain as a batch of
// one, a blocking download — and returns the result ciphertext. It is
// k = 1 of the code the scheduler runs batched, so the reference is
// itself pinned to the host ckks.Evaluator, which shares no code with
// internal/core (TestSerialReferenceMatchesHostEvaluator).
func (h *Harness) RunSerial(job *Job) (*ckks.Ciphertext, error) {
	return h.RunSerialWith(job, nil)
}

// RunSerialWith executes a job whose dependency slots are filled from
// host ciphertexts (the producers' serial outputs) on the serial
// reference context. Uploading a downloaded output is a bit-exact
// round trip, so this is the reference semantics of a producer→consumer
// graph edge: the scheduler's device-resident shortcut must reproduce
// it exactly.
func (h *Harness) RunSerialWith(job *Job, deps []*ckks.Ciphertext) (*ckks.Ciphertext, error) {
	var ins []*core.Ciphertext
	for _, in := range job.Inputs {
		ins = append(ins, h.serial.Upload(in))
	}
	for _, d := range deps {
		ins = append(ins, h.serial.Upload(d))
	}
	vals, err := evalChain(h.serial, h.rlk, h.gks, []*Job{job}, [][]*core.Ciphertext{ins}, nil)
	if err != nil {
		return nil, err
	}
	out := h.serial.Download(vals[0][len(vals[0])-1])
	for _, v := range vals[0] {
		h.serial.Free(v)
	}
	return out, nil
}

// GraphNode is one job of a randomized DAG: DepNodes lists the earlier
// nodes whose outputs fill the job's dependency slots (in slot order —
// the runner wires them with Job.InputFrom before submitting), Expected
// is the plaintext model of the node's output, and Keep mirrors
// Job.KeepOutput (the node's output must be host-retrievable even
// though consumers exist).
type GraphNode struct {
	Job      *Job
	DepNodes []int
	Expected []complex128
	Keep     bool
}

// GraphCase is a randomized job DAG in topological (submission) order,
// plus per-node consumer counts (Consumers[i] is the number of later
// nodes depending on node i; zero marks a sink whose output is always
// downloaded).
type GraphCase struct {
	Nodes     []*GraphNode
	Consumers []int
}

// RandomGraph builds a random DAG of nNodes jobs: each node draws 0-2
// fresh encrypted inputs and (after the first) 1-2 dependency edges to
// random earlier nodes, followed by a random applicable op chain, with
// a third of the nodes also marked KeepOutput. The plaintext model is
// evaluated alongside, so a differential runner can pin every node's
// output — resident or downloaded — against both the serial context
// and the model.
func (h *Harness) RandomGraph(rng *rand.Rand, nNodes, maxOps int) *GraphCase {
	slots := h.Params.Slots()
	gc := &GraphCase{Consumers: make([]int, nNodes)}
	var outs []genValue // per-node output model
	for k := 0; k < nNodes; k++ {
		node := &GraphNode{Job: &Job{}}
		var vals []genValue
		nIn := rng.Intn(3)
		if k == 0 && nIn == 0 {
			nIn = 1
		}
		for i := 0; i < nIn; i++ {
			pt := make([]complex128, slots)
			for j := range pt {
				pt[j] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
			}
			node.Job.Inputs = append(node.Job.Inputs, h.Encrypt(pt))
			vals = append(vals, genValue{
				meta: valueMeta{level: h.Params.MaxLevel(), scale: h.Params.Scale},
				pt:   pt,
			})
		}
		if k > 0 {
			nDep := 1 + rng.Intn(2)
			for i := 0; i < nDep; i++ {
				p := rng.Intn(k)
				node.DepNodes = append(node.DepNodes, p)
				gc.Consumers[p]++
				vals = append(vals, outs[p])
			}
		}
		nOps := 1 + rng.Intn(maxOps)
		for len(node.Job.Ops) < nOps {
			op, ok := h.randomOp(rng, vals)
			if !ok {
				break
			}
			node.Job.Ops = append(node.Job.Ops, op)
			vals = append(vals, applyModel(h.Params, vals, op, slots))
		}
		if len(node.Job.Ops) == 0 {
			op := Op{Code: OpAdd, A: 0, B: 0}
			node.Job.Ops = append(node.Job.Ops, op)
			vals = append(vals, applyModel(h.Params, vals, op, slots))
		}
		if rng.Intn(3) == 0 {
			node.Keep = true
			node.Job.KeepOutput()
		}
		out := vals[len(vals)-1]
		node.Expected = out.pt
		outs = append(outs, out)
		gc.Nodes = append(gc.Nodes, node)
	}
	return gc
}

// RunGraphSerial evaluates the DAG on the serial reference context in
// topological order, feeding each node's downloaded output into its
// consumers' dependency slots. It returns every node's host output.
func (h *Harness) RunGraphSerial(gc *GraphCase) ([]*ckks.Ciphertext, error) {
	outs := make([]*ckks.Ciphertext, len(gc.Nodes))
	for k, node := range gc.Nodes {
		deps := make([]*ckks.Ciphertext, len(node.DepNodes))
		for i, p := range node.DepNodes {
			deps[i] = outs[p]
		}
		out, err := h.RunSerialWith(node.Job, deps)
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", k, err)
		}
		outs[k] = out
	}
	return outs, nil
}

// SameCiphertext reports whether two ciphertexts are identical:
// same level, scale and raw RNS coefficients. The simulated kernels
// are deterministic, so the concurrent scheduler must reproduce the
// serial path bit-for-bit; any divergence is a scheduling bug (shared
// state corruption, wrong buffer reuse, ...).
func SameCiphertext(a, b *ckks.Ciphertext) error {
	if a.Level != b.Level {
		return fmt.Errorf("level %d vs %d", a.Level, b.Level)
	}
	if a.Scale != b.Scale {
		return fmt.Errorf("scale %g vs %g", a.Scale, b.Scale)
	}
	if len(a.Value) != len(b.Value) {
		return fmt.Errorf("degree %d vs %d", len(a.Value), len(b.Value))
	}
	for i := range a.Value {
		da, db := a.Value[i].Data(), b.Value[i].Data()
		if len(da) != len(db) {
			return fmt.Errorf("component %d: %d vs %d words", i, len(da), len(db))
		}
		for j := range da {
			if da[j] != db[j] {
				return fmt.Errorf("component %d word %d: %d vs %d", i, j, da[j], db[j])
			}
		}
	}
	return nil
}

// MaxSlotError returns the largest |got-want| over all slots.
func MaxSlotError(got, want []complex128) float64 {
	var max float64
	for i := range want {
		if d := cmplx.Abs(got[i] - want[i]); d > max {
			max = d
		}
	}
	return max
}
