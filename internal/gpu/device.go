package gpu

import (
	"errors"
	"fmt"
	"sync"

	"xehe/internal/isa"
)

// ErrLinkFault marks a wire-level loss of a submitted command on a
// remote device's network hop: unlike an injected drop (which the link
// layer retransmits transparently, pricing only time), a fault loses
// the command outright and surfaces to the submitter as an error. It
// is the canonical transient failure — a retry of the same submission
// is expected to succeed — and schedulers match it with errors.Is to
// drive retry policies.
var ErrLinkFault = errors.New("gpu: link fault (command lost on the wire)")

// Device is a simulated Intel GPU. It owns per-tile command timelines
// and a simulated host clock, so fully asynchronous pipelines (Fig. 2)
// can be timed: submissions advance only the host clock by the small
// enqueue cost, kernels advance the tile timeline, and host/device
// synchronization points advance the host clock to the device's.
type Device struct {
	Spec DeviceSpec

	mu        sync.Mutex
	tileTime  []Cycles // per-tile completion time of the last command
	copyTime  []Cycles // per-tile copy-engine timeline (Spec.CopyEngine)
	hostTime  Cycles
	allocated int64 // live device bytes
	peakAlloc int64
	allocs    int64 // driver allocations performed (memcache bypasses)

	traceOn bool
	trace   []TraceEntry

	link *link // non-nil when the device sits across a network hop
}

// link models the network hop between the submitting host and a device
// on a remote node. Every wire-format submission pays the one-way
// latency before the command can start, transfer payloads additionally
// pay the bandwidth leg, and completion syncs pay the latency on the
// way back. Injected faults (delay/drop) perturb only the timeline —
// payloads are never corrupted, so results stay bit-identical and the
// recovery invariant is checkable end to end.
type link struct {
	latency Cycles  // one-way wire latency per crossing
	bpc     float64 // payload bandwidth in bytes per device cycle (0 = latency-only)

	delay  Cycles // injected extra latency while delayN > 0
	delayN int64  // remaining hops that pay delay
	dropN  int64  // remaining hops that are dropped and retransmitted
	failN  int64  // remaining hops that are lost outright (ErrLinkFault)

	hops    int64 // forward crossings priced
	delayed int64
	dropped int64
	faulted int64
	cycles  Cycles // total link cycles charged on forward crossings
}

// hop prices one forward crossing, consuming injected faults: a dropped
// hop is retransmitted (the lost attempt plus the retry each pay the
// wire latency), a delayed hop pays the injected extra on top, and a
// faulted hop is lost outright — the attempt pays the wire latency but
// the command never arrives (lost=true; the caller surfaces
// ErrLinkFault).
func (l *link) hop() (c Cycles, lost bool) {
	if l.failN > 0 {
		l.failN--
		l.faulted++
		l.hops++
		l.cycles += l.latency
		return l.latency, true
	}
	c = l.latency
	if l.dropN > 0 {
		l.dropN--
		l.dropped++
		c += 2 * l.latency
	}
	if l.delayN > 0 {
		l.delayN--
		l.delayed++
		c += l.delay
	}
	l.hops++
	l.cycles += c
	return c, false
}

// LinkStats is a snapshot of a remote device's network-hop counters.
type LinkStats struct {
	Hops      int64  // forward crossings priced (submits; copies pay one each)
	Delayed   int64  // crossings that consumed an injected delay
	Dropped   int64  // crossings that consumed an injected drop (retransmitted)
	Faulted   int64  // crossings lost outright (surfaced as ErrLinkFault)
	HopCycles Cycles // total link cycles charged on forward crossings
}

// SetLink places the device across a simulated network hop: every
// wire-format submission delays command arrival by the one-way latency,
// transfer payloads pay latency plus bytes/bandwidth, and host syncs
// pay the latency on the completion's way back. Zero latency and
// bandwidth restore the host-local fast path.
func (d *Device) SetLink(latency Cycles, bytesPerCycle float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if latency == 0 && bytesPerCycle == 0 {
		d.link = nil
		return
	}
	d.link = &link{latency: latency, bpc: bytesPerCycle}
}

// ensureLinkLocked lets faults be injected even on a host-local device
// (a zero-latency link that only the injected perturbations price).
func (d *Device) ensureLinkLocked() *link {
	if d.link == nil {
		d.link = &link{}
	}
	return d.link
}

// InjectLinkDelay makes the next hops forward crossings pay extra link
// cycles each — a congested or degraded hop.
func (d *Device) InjectLinkDelay(extra Cycles, hops int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l := d.ensureLinkLocked()
	l.delay = extra
	l.delayN += hops
}

// InjectLinkDrop drops the next hops forward crossings: each is
// retransmitted, pricing the lost attempt and the retry. Timing-plane
// only — no payload is lost, so results are unchanged.
func (d *Device) InjectLinkDrop(hops int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ensureLinkLocked().dropN += hops
}

// InjectLinkFault loses the next hops forward crossings outright: each
// faulted submission pays the wire latency for the lost attempt and
// then panics with an error wrapping ErrLinkFault, which the scheduler
// worker recovers into the job's failure (and, under a retry policy,
// re-executes). Unlike InjectLinkDrop this is not timing-plane only —
// the command is genuinely lost and the submitter must re-drive it.
func (d *Device) InjectLinkFault(hops int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ensureLinkLocked().failN += hops
}

// LinkStats returns the hop counters (zero for a host-local device).
func (d *Device) LinkStats() LinkStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.link == nil {
		return LinkStats{}
	}
	return LinkStats{Hops: d.link.hops, Delayed: d.link.delayed,
		Dropped: d.link.dropped, Faulted: d.link.faulted,
		HopCycles: d.link.cycles}
}

// linkLeg prices the bandwidth leg of an n-byte payload crossing the
// link (the latency leg is charged by the submission's wire hop).
func (d *Device) linkLeg(n int64) Cycles {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.link == nil || d.link.bpc <= 0 {
		return 0
	}
	c := float64(n) / d.link.bpc
	d.link.cycles += c
	return c
}

// TraceEntry records one submitted command for profiling (Fig. 5's
// NTT-vs-others breakdown) and timeline export (internal/obs). Cycles
// is the command's analytic duration before the multi-queue tax, so
// duration-based breakdowns are placement-independent; Start/End are
// its scheduled interval on the tile's timeline (tax included), Copy
// marks commands placed on the tile's copy engine, and Items is a
// kernel's work-item count (0 for transfers), so a log can be audited
// for how much work was launched, not only how long it took.
type TraceEntry struct {
	Name   string
	Items  int
	Cycles Cycles
	Start  Cycles
	End    Cycles
	Tile   int
	Copy   bool
}

// NewDevice creates a device from a spec.
func NewDevice(spec DeviceSpec) *Device {
	return &Device{
		Spec:     spec,
		tileTime: make([]Cycles, spec.Tiles),
		copyTime: make([]Cycles, spec.Tiles),
	}
}

// NewDevice1 and NewDevice2 build the two benchmark devices.
func NewDevice1() *Device { return NewDevice(Device1Spec()) }
func NewDevice2() *Device { return NewDevice(Device2Spec()) }

// ResetClocks clears only the simulated clocks, preserving allocation
// accounting — for measuring steady state after a warm-up phase whose
// buffers are still live (clearing the accounting would drive the
// live-bytes counter negative once those buffers are freed).
func (d *Device) ResetClocks() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.resetClocksLocked()
}

func (d *Device) resetClocksLocked() {
	for i := range d.tileTime {
		d.tileTime[i] = 0
	}
	for i := range d.copyTime {
		d.copyTime[i] = 0
	}
	d.hostTime = 0
}

// HostTime returns the simulated host clock in device cycles.
func (d *Device) HostTime() Cycles {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hostTime
}

// DeviceTime returns the completion time of the busiest timeline
// (tile compute or copy engine).
func (d *Device) DeviceTime() Cycles {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.deviceTimeLocked()
}

// deviceTimeLocked is DeviceTime with d.mu held.
func (d *Device) deviceTimeLocked() Cycles {
	var m Cycles
	for _, t := range d.tileTime {
		if t > m {
			m = t
		}
	}
	for _, t := range d.copyTime {
		if t > m {
			m = t
		}
	}
	return m
}

// Seconds converts simulated cycles to seconds on this device.
func (d *Device) Seconds(c Cycles) float64 { return c / (d.Spec.ClockGHz * 1e9) }

// SimulatedSeconds returns the simulated wall-clock consumed so far:
// the later of the busiest tile and the host clock, in seconds. Both
// clocks are read in one critical section, so a concurrent submission
// cannot land between the two reads.
func (d *Device) SimulatedSeconds() float64 {
	d.mu.Lock()
	t := max(d.deviceTimeLocked(), d.hostTime)
	d.mu.Unlock()
	return d.Seconds(t)
}

// EnableTrace starts recording per-command durations.
func (d *Device) EnableTrace() {
	d.mu.Lock()
	d.traceOn = true
	d.trace = nil
	d.mu.Unlock()
}

// Trace returns the recorded command log.
func (d *Device) Trace() []TraceEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]TraceEntry(nil), d.trace...)
}

// AllocStats reports live/peak device memory and driver allocations.
func (d *Device) AllocStats() (live, peak, count int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.allocated, d.peakAlloc, d.allocs
}

// RawMalloc models a driver allocation of size bytes: it costs
// AllocBaseCycles + AllocPerKBCycles on the host timeline. The memory
// cache (internal/memcache) exists precisely to avoid this cost on the
// hot path (Fig. 11 / Fig. 19 "mem cache" step).
func (d *Device) RawMalloc(size int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.allocs++
	d.allocated += size
	if d.allocated > d.peakAlloc {
		d.peakAlloc = d.allocated
	}
	// Device allocations synchronize with the in-flight work (USM
	// malloc drains the queue), so runtime allocation serializes the
	// pipeline — exactly the overhead the memory cache removes.
	for _, t := range d.tileTime {
		if t > d.hostTime {
			d.hostTime = t
		}
	}
	for _, t := range d.copyTime {
		if t > d.hostTime {
			d.hostTime = t
		}
	}
	d.hostTime += d.Spec.AllocBaseCycles + d.Spec.AllocPerKBCycles*float64(size>>10)
}

// RawFree models releasing a driver allocation (cheap).
func (d *Device) RawFree(size int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.allocated -= size
}

// Event marks the completion of a submitted command on the simulated
// timeline.
type Event struct {
	dev  *Device
	done Cycles
}

// Done returns the simulated completion time.
func (e Event) Done() Cycles { return e.done }

// latest returns the event of evs that completes last (the zero Event,
// which orders nothing, when there are none): a command ordered after
// it starts exactly when one ordered after all of them would.
func latest(evs []Event) Event {
	var last Event
	for _, ev := range evs {
		if ev.done > last.done {
			last = ev
		}
	}
	return last
}

// Wait blocks the simulated host until the event completes, paying the
// host-device synchronization cost. This is the only place the
// asynchronous pipeline of Fig. 2 stalls the host.
func (e Event) Wait() {
	if e.dev == nil {
		return
	}
	e.dev.mu.Lock()
	defer e.dev.mu.Unlock()
	seen := e.done
	if l := e.dev.link; l != nil {
		seen += l.latency // completion crosses the hop back to the host
	}
	if seen > e.dev.hostTime {
		e.dev.hostTime = seen
	}
	e.dev.hostTime += e.dev.Spec.HostSyncCycles
}

// Queue is an in-order command queue bound to one tile, mirroring a
// SYCL in-order queue. Explicit multi-tile submission (Section III-C.2)
// uses one Queue per tile.
type Queue struct {
	dev      *Device
	tile     int
	multiQ   bool // part of an explicit multi-queue set (pays the tax)
	blocking bool // if true, every submission synchronizes the host
	copyQ    bool // transfers land on the tile's copy-engine timeline
	last     Event
}

// NewQueue creates an in-order queue on the given tile.
func (d *Device) NewQueue(tile int) *Queue {
	if tile < 0 || tile >= d.Spec.Tiles {
		panic(fmt.Sprintf("gpu: tile %d out of range (device has %d)", tile, d.Spec.Tiles))
	}
	return &Queue{dev: d, tile: tile}
}

// NewQueues creates one queue per tile for explicit multi-tile
// submission; each submission then pays the multi-queue tax.
func (d *Device) NewQueues() []*Queue {
	qs := make([]*Queue, d.Spec.Tiles)
	for i := range qs {
		qs[i] = d.NewQueue(i)
		qs[i].multiQ = d.Spec.Tiles > 1
	}
	return qs
}

// SetBlocking makes every submission synchronize with the host — the
// naive (non-asynchronous) pipeline used as the baseline in the
// application-level ablations.
func (q *Queue) SetBlocking(b bool) { q.blocking = b }

// SetMultiQueue marks the queue as part of an explicit multi-queue set,
// so each submission pays the multi-queue tax (Section III-C.2). It is
// used by callers that build queue sets manually instead of through
// NewQueues — e.g. the concurrent scheduler's per-worker queues.
func (q *Queue) SetMultiQueue(b bool) { q.multiQ = b }

// SetCopyEngine routes this queue's CopyH2D/CopyD2H submissions onto
// the tile's copy-engine timeline, so transfers overlap with compute
// and synchronize only through explicit event dependencies. It takes
// effect only when the device models a copy engine (Spec.CopyEngine);
// otherwise transfers keep serializing on the compute timeline, so a
// copy queue degrades gracefully on copy-engine-less hardware.
func (q *Queue) SetCopyEngine(b bool) { q.copyQ = b }

// CopyEngine reports whether transfers on this queue ride the tile's
// copy engine.
func (q *Queue) CopyEngine() bool { return q.copyQ && q.dev.Spec.CopyEngine }

// Tile returns the tile this queue is bound to.
func (q *Queue) Tile() int { return q.tile }

// Device returns the owning device.
func (q *Queue) Device() *Device { return q.dev }

// submitOn places a command on the tile's compute timeline, or — when
// copyEngine is set and the device models one — on the tile's copy
// timeline, so transfers overlap with compute. Copy-engine submissions
// skip the multi-queue tax (the copy engine is a separate unit, not a
// contended compute queue) but still pay the host enqueue cost.
func (q *Queue) submitOn(name string, items int, dur Cycles, copyEngine bool, deps ...Event) Event {
	d := q.dev
	copyEngine = copyEngine && d.Spec.CopyEngine
	rawDur := dur
	d.mu.Lock()
	d.hostTime += d.Spec.HostSubmitCycles
	arrive := d.hostTime
	if d.link != nil {
		// The wire-format command streams across the hop: the host is
		// not stalled, but the command cannot start before it arrives.
		hopC, lost := d.link.hop()
		arrive += hopC
		if lost {
			// The command never arrived; nothing lands on a timeline.
			// Release the device lock before unwinding — the recovering
			// worker will query this device again.
			d.mu.Unlock()
			panic(fmt.Errorf("link: %s lost on the wire: %w", name, ErrLinkFault))
		}
	}
	tl := d.tileTime
	if copyEngine {
		tl = d.copyTime
	}
	start := tl[q.tile]
	if arrive > start {
		start = arrive // commands cannot start before enqueue + hop
	}
	for _, dep := range deps {
		if dep.done > start {
			start = dep.done
		}
	}
	if q.multiQ && !copyEngine {
		dur += d.Spec.MultiQueueTaxCycles
	}
	end := start + dur
	tl[q.tile] = end
	if d.traceOn {
		d.trace = append(d.trace, TraceEntry{
			Name: name, Items: items, Cycles: rawDur, Start: start, End: end,
			Tile: q.tile, Copy: copyEngine,
		})
	}
	d.mu.Unlock()
	ev := Event{dev: d, done: end}
	q.last = ev
	if q.blocking {
		ev.Wait()
	}
	return ev
}

// SubmitProfile enqueues an analytic-only kernel (no functional body).
func (q *Queue) SubmitProfile(p KernelProfile, cg isa.CodeGen, deps ...Event) Event {
	return q.submitOn(p.Name, p.Items, p.Time(&q.dev.Spec, cg, 1), false, deps...)
}

// CopyH2D enqueues a host-to-device transfer of n bytes. On a copy
// queue (SetCopyEngine) of a copy-engine device it lands on the copy
// timeline and overlaps with compute.
func (q *Queue) CopyH2D(n int64, deps ...Event) Event {
	dur := float64(n)/q.dev.Spec.PCIeBytesPerCycle + q.dev.linkLeg(n)
	return q.submitOn("memcpy_h2d", 0, dur, q.copyQ, deps...)
}

// CopyD2H enqueues a device-to-host transfer of n bytes (copy-engine
// placement as CopyH2D).
func (q *Queue) CopyD2H(n int64, deps ...Event) Event {
	dur := float64(n)/q.dev.Spec.PCIeBytesPerCycle + q.dev.linkLeg(n)
	return q.submitOn("memcpy_d2h", 0, dur, q.copyQ, deps...)
}

// Wait drains the queue (host waits for the last submitted command).
func (q *Queue) Wait() { q.last.Wait() }
