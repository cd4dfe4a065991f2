// Package core is the paper's primary contribution: the XeHE GPU
// backend for the SEAL-style CKKS API. It executes the homomorphic
// evaluation pipeline (Section III) on the simulated Intel GPU:
// optimized NTT variants, inline-assembly codegen, fused mad_mod,
// device memory cache, asynchronous in-order submission, and explicit
// multi-tile queues. Key generation, encoding, encryption and
// decryption stay on the CPU, exactly as in Fig. 1.
package core

import (
	"xehe/internal/ckks"
	"xehe/internal/gpu"
	"xehe/internal/isa"
	"xehe/internal/memcache"
	"xehe/internal/ntt"
	"xehe/internal/poly"
	"xehe/internal/sycl"
)

// Config selects the optimization steps studied in the paper's
// evaluation; the zero value is the naive baseline of Figs. 16/18/19.
type Config struct {
	// NTT selects the GPU NTT variant (NaiveRadix2 is the baseline;
	// LocalRadix8 is the paper's optimal "opt-NTT").
	NTT ntt.Variant
	// InlineASM enables the assembly-level int64 optimizations
	// (Section III-A.2).
	InlineASM bool
	// MadMod enables the fused multiply-add-mod (Section III-A.1).
	MadMod bool
	// MemCache enables the device memory cache (Section III-C.1).
	MemCache bool
	// DualTile submits kernels through one queue per tile
	// (Section III-C.2).
	DualTile bool
	// Analytic is the timing-only mode (paper-scale sweeps): kernel
	// bodies are skipped and device buffers are sizes and driver
	// accounting without memory of their own (memcache.NewTimingOnly),
	// so every simulated clock, counter and trace entry equals the
	// functional run's while the host pays only for bookkeeping.
	Analytic bool
}

// Naive returns the unoptimized baseline configuration.
func Naive() Config { return Config{NTT: ntt.NaiveRadix2} }

// OptNTT is the "opt-NTT" step: radix-8 NTT with SLM.
func OptNTT() Config { return Config{NTT: ntt.LocalRadix8} }

// OptNTTAsm adds the inline-assembly step.
func OptNTTAsm() Config { return Config{NTT: ntt.LocalRadix8, InlineASM: true, MadMod: true} }

// OptNTTAsmDualTile adds explicit multi-tile submission.
func OptNTTAsmDualTile() Config {
	return Config{NTT: ntt.LocalRadix8, InlineASM: true, MadMod: true, DualTile: true}
}

// Codegen returns the code-generation strategy the config selects
// (inline assembly vs compiler-generated, Section III-A.2).
func (c Config) Codegen() isa.CodeGen {
	if c.InlineASM {
		return isa.InlineASM
	}
	return isa.CompilerGenerated
}

// Context owns the device-side state of one HE session: queues, the
// NTT engine, and the memory cache.
type Context struct {
	Params *ckks.Parameters
	Device *gpu.Device
	Queues []*sycl.Queue
	Cache  *memcache.Cache
	Engine *ntt.Engine
	Cfg    Config

	// copyQ is the transfer queue of the batched copies (UploadBatch,
	// DownloadBatchAsync): a copy queue (gpu.Device.NewCopyQueue), so
	// they land on the tile's copy timeline and overlap with compute.
	copyQ *sycl.Queue

	// deps is the pending pipeline tail (in-order semantics). After a
	// kernel launch it is tail itself, whose capacity equals its length,
	// so an append (DependOn) never writes into it; every other holder
	// gets a copy (Deps, PipelineAfter).
	deps []gpu.Event
	// tail receives every kernel launch's completion events, one per
	// queue, so a warm launch on one queue allocates nothing.
	tail []gpu.Event
	// ew is the descriptor every elementwise launch fills (ewKernelJobs):
	// a launch prices a copy of the profile and runs the body, or keeps
	// a copy of the kernel for its row chain (rowChain), before it
	// returns; nothing keeps the pointer.
	ew sycl.Kernel
	// inChain is set while rowChain holds the queue.
	inChain bool

	// Timing-only mode only: the shape-only view of each (polys, rows)
	// transform shape (rowsView), and the row headers of each component
	// count (allocPoly). Every timing-only buffer aliases one slab and
	// nothing reads rows, so one of each serves every transform and
	// every polynomial of that shape.
	views map[[2]int]*ntt.BatchView
	rows  map[int][][]uint64

	// scope holds the buffers allocated and not yet freed inside Scoped
	// (scoped); it is cleared when the scope closes.
	scope  map[*sycl.Buffer]struct{}
	scoped bool

	// hostZeros backs every host result of a timing-only download (see
	// hostResult); it grows to the largest result and is never written.
	hostZeros []uint64
}

// NewContext creates a backend context on the device.
func NewContext(params *ckks.Parameters, dev *gpu.Device, cfg Config) *Context {
	cg := cfg.Codegen()
	var queues []*sycl.Queue
	if cfg.DualTile && dev.Spec.Tiles > 1 {
		queues = sycl.NewQueuesAllTiles(dev, cg)
	} else {
		queues = []*sycl.Queue{sycl.NewQueue(dev, cg)}
	}
	return NewContextOn(params, dev, cfg, queues, NewCache(dev, cfg))
}

// NewCache builds the buffer cache a context under cfg runs on:
// recycling per cfg.MemCache, size-only buffers per cfg.Analytic.
func NewCache(dev *gpu.Device, cfg Config) *memcache.Cache {
	if cfg.Analytic {
		return memcache.NewTimingOnly(dev, cfg.MemCache)
	}
	return memcache.New(dev, cfg.MemCache)
}

// NewContextOn creates a backend context bound to externally supplied
// queues and a (possibly shared) memory cache. The concurrent scheduler
// (internal/sched) uses it to give each worker its own in-order queue
// while all workers recycle buffers through one device-wide cache; the
// cache is safe for concurrent use, and per-worker queues keep the
// in-order pipeline state (deps) private to one goroutine. The cache
// must be of cfg's mode (see NewCache): a timing-only cache's buffers
// alias each other, which functional kernel bodies must never see, and
// a functional cache under Analytic would zero memory nothing reads.
func NewContextOn(params *ckks.Parameters, dev *gpu.Device, cfg Config, queues []*sycl.Queue, cache *memcache.Cache) *Context {
	if cache.TimingOnly() != cfg.Analytic {
		panic("core: cache mode does not match Config.Analytic (build the cache with core.NewCache)")
	}
	c := &Context{
		Params: params,
		Device: dev,
		Queues: queues,
		Cache:  cache,
		Engine: &ntt.Engine{V: cfg.NTT},
		Cfg:    cfg,
		copyQ:  sycl.NewCopyQueueOnTile(dev, queues[0].Raw().Tile()),
		tail:   make([]gpu.Event, len(queues)),
		scope:  map[*sycl.Buffer]struct{}{},
	}
	if cfg.Analytic {
		c.views = map[[2]int]*ntt.BatchView{}
		c.rows = map[int][][]uint64{}
	}
	return c
}

// Wait drains the pipeline (host-device synchronization). The
// asynchronous design only calls this when results are needed on the
// host (decrypt), as in Fig. 2.
func (c *Context) Wait() {
	for _, ev := range c.deps {
		ev.Wait()
	}
	c.deps = nil
}

// after records the pipeline tail.
func (c *Context) after(evs []gpu.Event) { c.deps = evs }

// PipelineAfter resets the context's in-order pipeline tail to the
// given events. The scheduler's double-buffered worker uses it to
// interleave the next batch's gathered upload (whose submission
// overwrites the tail) with the current batch's compute: it stashes
// each batch's upload event and restores it here before staging that
// batch's kernels, so every chain depends on its own inputs' copy.
func (c *Context) PipelineAfter(evs ...gpu.Event) {
	c.deps = append([]gpu.Event(nil), evs...)
}

// DependOn appends events to the pipeline tail without replacing it:
// subsequent submissions are ordered after them too. The scheduler
// uses it to chain a consumer job's kernels behind the producer
// events of its device-resident inputs.
func (c *Context) DependOn(evs ...gpu.Event) {
	c.deps = append(c.deps, evs...)
}

// Deps returns a copy of the context's current pipeline tail. The
// scheduler captures it when retaining a job's output device-resident,
// so consumers on other queues can order their work after the
// producer's chain.
func (c *Context) Deps() []gpu.Event {
	return append([]gpu.Event(nil), c.deps...)
}

// allocPoly lays p over a buffer of components rows obtained through the
// memory cache (or the raw driver when the cache is disabled; then into
// hdr, see memcache.Cache.MallocInto). A timing-only polynomial is laid
// over the shared rows of its component count (see Context.rows).
func (c *Context) allocPoly(p *poly.Poly, components int, hdr *sycl.Buffer) *sycl.Buffer {
	buf := c.Cache.MallocInto(components*c.Params.N, hdr)
	if c.scoped {
		c.scope[buf] = struct{}{}
	}
	p.N, p.Coeffs = c.Params.N, c.rows[components] // nil in functional mode
	if p.Coeffs == nil {
		p.Coeffs = poly.Rows(c.Params.N, components, buf.Data)
		if c.Cfg.Analytic {
			c.rows[components] = p.Coeffs
		}
	}
	return buf
}

// freePolys returns buffers to the cache. Inside a row chain it panics:
// a held body may still read the buffer, and the next allocation could
// hand it out again.
func (c *Context) freePolys(bufs []*sycl.Buffer) {
	if c.inChain {
		panic("core: buffer freed inside a row chain")
	}
	for _, buf := range bufs {
		delete(c.scope, buf)
		c.Cache.Free(buf)
	}
}

// Scoped runs fn under an allocation scope: if fn panics — a launch
// lost on the wire, a broken key — every buffer it allocated through
// the context and had not freed yet goes back to the cache before the
// panic continues, so a caller that recovers (the scheduler's chain
// executor) strands nothing. What fn returns normally it owns as usual.
// Scopes do not nest.
func (c *Context) Scoped(fn func()) {
	c.scoped = true
	done := false
	defer clear(c.scope)
	defer func() {
		c.scoped = false
		if !done {
			for buf := range c.scope {
				c.Cache.Free(buf)
			}
		}
	}()
	fn()
	done = true
}

// Ciphertext is a device-resident ciphertext: the host ckks.Ciphertext
// plus the buffers backing its polynomials. One built by newCt is one
// heap object: CT, Value, bufs and the polynomial headers point into its
// own arrays (degree ≤ 2), and so do the buffer headers with recycling
// off (pooled buffers outlive a ciphertext and keep their own). It is
// never reused, so a stale pointer or a Borrow alias never names a
// later ciphertext.
type Ciphertext struct {
	CT   *ckks.Ciphertext
	bufs []*sycl.Buffer
	// borrowed marks an alias created by Borrow: its buffers are owned
	// elsewhere (a device-resident job output pinned by the scheduler),
	// so Free is a no-op on it.
	borrowed bool

	ct    ckks.Ciphertext
	value [3]*poly.Poly
	polys [3]poly.Poly
	slots [3]*sycl.Buffer
	hdrs  [3]sycl.Buffer
}

// newCt allocates a device ciphertext of polys polynomials; fill gives
// each polynomial its buffer.
func newCt(polys, level int, scale float64) *Ciphertext {
	ct := &Ciphertext{ct: ckks.Ciphertext{Scale: scale, Level: level}}
	ct.CT, ct.ct.Value, ct.bufs = &ct.ct, ct.value[:polys:polys], ct.slots[:polys:polys]
	return ct
}

// fill lays polynomial i of ct over a fresh buffer of rows components.
func (c *Context) fill(ct *Ciphertext, i, rows int, isNTT bool) {
	ct.bufs[i] = c.allocPoly(&ct.polys[i], rows, &ct.hdrs[i])
	ct.polys[i].IsNTT = isNTT
	ct.value[i] = &ct.polys[i]
}

// Buffers returns the device buffers backing the ciphertext. The
// scheduler pins them in the memory cache while the value is shared
// between jobs as a device-resident intermediate.
func (ct *Ciphertext) Buffers() []*sycl.Buffer { return ct.bufs }

// Borrow returns an alias of ct whose Free is a no-op: the underlying
// buffers stay owned by the original. Consumer jobs splice borrowed
// aliases of device-resident producer outputs into their value lists,
// so the chain executor's uniform free paths (including the recycling
// of a failed batch) never release a buffer other jobs still read.
func Borrow(ct *Ciphertext) *Ciphertext {
	return &Ciphertext{CT: ct.CT, bufs: ct.bufs, borrowed: true}
}

// Upload copies a host ciphertext into device buffers, one copy
// submission per component on the compute queue.
func (c *Context) Upload(ct *ckks.Ciphertext) *Ciphertext {
	out := newCt(len(ct.Value), ct.Level, ct.Scale)
	evs := make([]gpu.Event, 0, len(ct.Value))
	for i, pv := range ct.Value {
		c.fill(out, i, pv.Components(), pv.IsNTT)
		if !c.Cfg.Analytic {
			evs = append(evs, c.Queues[0].CopyInGather(out.bufs[i:i+1], [][]uint64{pv.Data()}))
		} else {
			evs = append(evs, c.Queues[0].Raw().CopyH2D(out.bufs[i].Bytes()))
		}
	}
	c.after(evs)
	return out
}

// hostResult returns the host polynomial a download of pv lands in.
// Functional mode allocates it. A timing-only copy moves no words and
// nothing may read a result's, so there every result is its own header
// (component count, IsNTT) over one zero slab shared by the context's
// downloads, instead of N × components words allocated and zeroed each.
func (c *Context) hostResult(pv *poly.Poly) *poly.Poly {
	n, comps := c.Params.N, pv.Components()
	var host *poly.Poly
	if c.Cfg.Analytic {
		if len(c.hostZeros) < n*comps {
			c.hostZeros = make([]uint64, n*comps)
		}
		host = poly.FromData(n, comps, c.hostZeros)
	} else {
		host = poly.New(n, comps)
	}
	host.IsNTT = pv.IsNTT
	return host
}

// Download synchronizes and copies a device ciphertext back to host
// memory (the only blocking step of the pipeline).
func (c *Context) Download(ct *Ciphertext) *ckks.Ciphertext {
	out := &ckks.Ciphertext{Scale: ct.CT.Scale, Level: ct.CT.Level}
	var last gpu.Event
	for i, pv := range ct.CT.Value {
		host := c.hostResult(pv)
		if !c.Cfg.Analytic {
			last = c.Queues[0].CopyOutScatter([][]uint64{host.Data()}, ct.bufs[i:i+1], c.deps...)
		} else {
			last = c.Queues[0].Raw().CopyD2H(ct.bufs[i].Bytes(), c.deps...)
		}
		out.Value = append(out.Value, host)
	}
	last.Wait()
	c.deps = nil
	return out
}

// Free returns the ciphertext's buffers to the cache. Freeing a
// borrowed alias (see Borrow) is a no-op: ownership stays with the
// original.
func (c *Context) Free(ct *Ciphertext) {
	if ct.borrowed {
		return
	}
	c.freePolys(ct.bufs)
	ct.bufs = nil
}
