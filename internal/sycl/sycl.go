// Package sycl provides a thin DPC++/SYCL-shaped runtime over the GPU
// simulator, mirroring the programming model the paper's library is
// written against: in-order queues, parallel_for kernel launches with
// nd_range geometry, events, and USM device allocations.
//
// It exists so that the NTT kernels and the HE pipeline read like
// their SYCL counterparts in the paper (Figs. 6 and 8), and so that
// explicit multi-tile submission through multiple queues
// (Section III-C.2) is expressed the same way as in DPC++.
package sycl

import (
	"xehe/internal/gpu"
	"xehe/internal/isa"
)

// Queue is an in-order SYCL queue bound to (one tile of) a device.
type Queue struct {
	q  *gpu.Queue
	cg isa.CodeGen
}

// NewQueue creates a queue on tile 0 of the device, the implicit
// single-tile submission the paper's DPC++ runtime performs.
func NewQueue(d *gpu.Device, cg isa.CodeGen) *Queue {
	return &Queue{q: d.NewQueue(0), cg: cg}
}

// NewQueueOnTile creates a queue bound to a specific tile. When multiQ
// is true the queue is part of an explicit multi-queue set and every
// submission pays the multi-queue tax (Section III-C.2) — regardless
// of the device's tile count: several queues contending on one tile
// are still explicit multi-queue submission.
func NewQueueOnTile(d *gpu.Device, tile int, cg isa.CodeGen, multiQ bool) *Queue {
	gq := d.NewQueue(tile)
	gq.SetMultiQueue(multiQ)
	return &Queue{q: gq, cg: cg}
}

// NewCopyQueueOnTile creates a queue bound to a tile's copy engine
// (gpu.Device.NewCopyQueue): CopyInGather/CopyOutScatter submitted
// through it land on the copy timeline and overlap with compute,
// synchronized only through explicit event dependencies. Copy queues
// never launch kernels, so they carry no codegen strategy.
func NewCopyQueueOnTile(d *gpu.Device, tile int) *Queue {
	return &Queue{q: d.NewCopyQueue(tile)}
}

// NewQueuesAllTiles creates one queue per tile (explicit multi-tile
// submission).
func NewQueuesAllTiles(d *gpu.Device, cg isa.CodeGen) []*Queue {
	gqs := d.NewQueues()
	qs := make([]*Queue, len(gqs))
	for i, gq := range gqs {
		qs[i] = &Queue{q: gq, cg: cg}
	}
	return qs
}

// CodeGen returns the code-generation strategy kernels on this queue
// are compiled with (compiler baseline or inline assembly).
func (q *Queue) CodeGen() isa.CodeGen { return q.cg }

// Raw returns the underlying simulator queue.
func (q *Queue) Raw() *gpu.Queue { return q.q }

// Device returns the underlying simulated device.
func (q *Queue) Device() *gpu.Device { return q.q.Device() }

// Launch runs a kernel over a queue set — SYCL's queue.parallel_for
// shortcut, and the one launch path of the HE pipeline and the NTT
// engine: whole on the queue when the set is one queue, split evenly
// across the set otherwise (explicit multi-tile submission, Section
// III-C.2); the body runs once either way. Each submission is ordered
// after deps and costs price cycles, which must be Price(qs, k). The
// completion events, one per queue, are written into evs (grown only
// when it has no room for them) and returned; evs may share its
// backing array with deps.
func Launch(evs []gpu.Event, qs []*Queue, k *Kernel, price gpu.Cycles, deps ...gpu.Event) []gpu.Event {
	if len(qs) == 1 {
		return append(evs[:0], qs[0].q.LaunchPriced(k, price, deps...))
	}
	raw := make([]*gpu.Queue, len(qs))
	for i, q := range qs {
		raw[i] = q.q
	}
	return gpu.LaunchSplit(evs, raw, k, price, deps...)
}

// Price returns what each submission of a Launch of k over qs costs:
// the kernel priced on the set's device under its codegen, whole or
// split across the set.
func Price(qs []*Queue, k *Kernel) gpu.Cycles {
	return k.Price(&qs[0].Device().Spec, qs[0].cg, len(qs))
}

// Kernel aliases the simulator kernel type.
type Kernel = gpu.Kernel

// NDRange aliases the simulator launch geometry.
type NDRange = gpu.NDRange

// Buffer is a USM-style device allocation with simulated transfer and
// allocation costs. Data lives in host memory (the simulator executes
// functionally on the host) but the cost accounting matches
// malloc_device + memcpy semantics.
type Buffer struct {
	Data []uint64
	dev  *gpu.Device
}

// MallocDevice allocates n uint64 words on the device, paying the
// driver allocation cost (sycl::malloc_device).
func MallocDevice(d *gpu.Device, n int) *Buffer {
	return MallocDeviceOver(d, make([]uint64, n), nil)
}

// MallocDeviceOver is MallocDevice over caller-owned words: the driver
// is charged for cap(words) words (what Free refunds) and the buffer is
// written into hdr, or into a new header when hdr is nil. The memory
// cache's timing-only mode lays any number of buffers over the same
// words, so nothing may read or write their Data — only its length and
// capacity mean anything — and the cache writes headers that live
// inside a device ciphertext's own allocation.
func MallocDeviceOver(d *gpu.Device, words []uint64, hdr *Buffer) *Buffer {
	if hdr == nil {
		hdr = new(Buffer)
	}
	d.RawMalloc(int64(cap(words)) * 8)
	*hdr = Buffer{Data: words, dev: d}
	return hdr
}

// Free releases the buffer back to the driver. Freeing a buffer twice
// panics.
func (b *Buffer) Free() {
	if b.Data == nil {
		panic("sycl: free of an already-freed buffer")
	}
	if b.dev != nil {
		b.dev.RawFree(int64(cap(b.Data)) * 8)
	}
	b.Data = nil
}

// Bytes returns the buffer size in bytes.
func (b *Buffer) Bytes() int64 { return int64(len(b.Data)) * 8 }

// CopyInGather models one host-to-device transfer of a whole batch:
// each source row is copied straight into its device buffer, and the
// batch is shipped as a single memcpy submission sized at the sum of
// all rows. Row i lands in dsts[i]; rows may be ragged (different
// lengths). A single row is the plain memcpy.
func (q *Queue) CopyInGather(dsts []*Buffer, srcs [][]uint64, deps ...gpu.Event) gpu.Event {
	if len(dsts) != len(srcs) {
		panic("sycl: gathered copy needs one destination buffer per source row")
	}
	var total int64
	for i, src := range srcs {
		copy(dsts[i].Data, src)
		total += int64(len(src)) * 8
	}
	return q.q.CopyH2D(total, deps...)
}

// CopyOutScatter models one device-to-host transfer of a whole batch:
// the exact mirror of CopyInGather, each device row copied straight
// into its host slice under one submission sized at the row sum.
func (q *Queue) CopyOutScatter(dsts [][]uint64, srcs []*Buffer, deps ...gpu.Event) gpu.Event {
	if len(dsts) != len(srcs) {
		panic("sycl: scattered copy needs one host row per source buffer")
	}
	var total int64
	for i, dst := range dsts {
		copy(dst, srcs[i].Data)
		total += int64(len(dst)) * 8
	}
	return q.q.CopyD2H(total, deps...)
}
