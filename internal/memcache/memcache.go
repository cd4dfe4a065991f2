// Package memcache implements the device memory cache of Fig. 11: a
// free pool and a used pool of GPU buffers. An allocation request is
// routed through the free pool looking for any existing buffer whose
// capacity is at least the requested size; only on a miss does it fall
// through to the (expensive) driver allocation. Freeing moves the
// buffer back to the free pool for reuse.
//
// This removes the runtime allocation overhead from the HE pipeline —
// the ~90% application-level gain of the "mem cache" step in Fig. 19.
package memcache

import (
	"sort"
	"sync"
	"sync/atomic"

	"xehe/internal/gpu"
	"xehe/internal/sycl"
)

// Cache is a device memory cache. The zero value is not usable; call
// New. All methods are safe for concurrent use.
type Cache struct {
	dev        *gpu.Device
	enabled    bool
	timingOnly bool

	mu   sync.Mutex
	free []*sycl.Buffer // sorted by capacity, cap(Data), ascending
	used map[*sycl.Buffer]struct{}
	pins map[*sycl.Buffer]int

	hits, misses int64
}

// scratch is the one slab every timing-only buffer of every cache in
// the process is a view of: it grows, under its lock, to the largest
// request seen and its words are never read or written, so a fresh
// timing-only cache — a benchmark builds one per run — zeroes nothing.
// A request it already covers reads it with one atomic load.
var scratch struct {
	mu    sync.Mutex
	words atomic.Pointer[[]uint64]
}

// scratchView returns size words of the shared slab, capacity capped
// at size so that Free refunds exactly what the driver was charged.
func scratchView(size int) []uint64 {
	w := scratch.words.Load()
	if w == nil || len(*w) < size {
		scratch.mu.Lock()
		if w = scratch.words.Load(); w == nil || len(*w) < size {
			grown := make([]uint64, size)
			w = &grown
			scratch.words.Store(w)
		}
		scratch.mu.Unlock()
	}
	return (*w)[:size:size]
}

// New creates a cache for the device. If enabled is false the cache is
// pass-through: every Malloc performs a driver allocation and every
// Free releases it — the baseline configuration in Fig. 19.
func New(dev *gpu.Device, enabled bool) *Cache {
	return &Cache{dev: dev, enabled: enabled, used: map[*sycl.Buffer]struct{}{}, pins: map[*sycl.Buffer]int{}}
}

// NewTimingOnly is New for runs that skip kernel bodies
// (core.Config.Analytic): every driver allocation is charged to the
// device and every pool decision made exactly as in a cache from New,
// but no buffer gets memory of its own — all of them, across every
// timing-only cache of the process, are views of one shared slab, so
// their words alias and must never be read or written.
// core.NewContextOn refuses to pair such a cache with functional code.
func NewTimingOnly(dev *gpu.Device, enabled bool) *Cache {
	c := New(dev, enabled)
	c.timingOnly = true
	return c
}

// TimingOnly reports whether the cache hands out size-only buffers
// (see NewTimingOnly).
func (c *Cache) TimingOnly() bool { return c.timingOnly }

// driverAlloc makes every driver allocation of the cache — a Malloc
// miss (or any Malloc with recycling off) and each Warm buffer — into
// hdr (nil: a new header), its capacity the size it was charged at.
func (c *Cache) driverAlloc(size int, hdr *sycl.Buffer) *sycl.Buffer {
	if !c.timingOnly {
		return sycl.MallocDeviceOver(c.dev, make([]uint64, size), hdr)
	}
	return sycl.MallocDeviceOver(c.dev, scratchView(size), hdr)
}

// Malloc returns a device buffer with at least size words of capacity.
// With the cache enabled, the smallest free buffer with capacity >=
// size is reused (best fit); otherwise a new driver allocation of
// exactly size words is made.
func (c *Cache) Malloc(size int) *sycl.Buffer { return c.MallocInto(size, nil) }

// MallocInto is Malloc writing a driver allocation with recycling off
// into the caller-owned header hdr. Pooled buffers outlive any caller,
// so with recycling on hdr is unused.
func (c *Cache) MallocInto(size int, hdr *sycl.Buffer) *sycl.Buffer {
	if !c.enabled {
		return c.driverAlloc(size, hdr)
	}
	c.mu.Lock()
	// Best fit: first free buffer with capacity >= size.
	i := sort.Search(len(c.free), func(i int) bool { return cap(c.free[i].Data) >= size })
	if i < len(c.free) {
		buf := c.free[i]
		c.free = append(c.free[:i], c.free[i+1:]...)
		c.hits++
		buf.Data = buf.Data[:size]
		c.used[buf] = struct{}{}
		c.mu.Unlock()
		return buf
	}
	c.misses++
	c.mu.Unlock()

	buf := c.driverAlloc(size, nil)
	c.mu.Lock()
	c.used[buf] = struct{}{}
	c.mu.Unlock()
	return buf
}

// Free returns the buffer to the free pool (cache enabled) or releases
// it to the driver (cache disabled). Freeing a buffer that is not in
// the used pool panics: it indicates a double free or a foreign buffer.
func (c *Cache) Free(buf *sycl.Buffer) {
	if !c.enabled {
		c.mu.Lock()
		if c.pins[buf] > 0 {
			c.mu.Unlock()
			panic("memcache: free of pinned buffer")
		}
		c.mu.Unlock()
		buf.Free()
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pins[buf] > 0 {
		panic("memcache: free of pinned buffer")
	}
	if _, ok := c.used[buf]; !ok {
		panic("memcache: free of unknown or already-freed buffer")
	}
	delete(c.used, buf)
	buf.Data = buf.Data[:cap(buf.Data)]
	i := sort.Search(len(c.free), func(i int) bool { return cap(c.free[i].Data) >= len(buf.Data) })
	c.free = append(c.free, nil)
	copy(c.free[i+1:], c.free[i:])
	c.free[i] = buf
}

// Pin adds a reference to a live buffer, protecting it from Free: a
// pinned buffer backs a device-resident intermediate shared between
// jobs, and freeing it while consumers hold references would corrupt
// their inputs. Free panics on a pinned buffer; call Unpin once per
// Pin and the final Unpin recycles the buffer. Pinning a buffer the
// cache does not consider live panics.
func (c *Cache) Pin(buf *sycl.Buffer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.enabled {
		if _, ok := c.used[buf]; !ok {
			panic("memcache: pin of unknown or freed buffer")
		}
	}
	c.pins[buf]++
}

// Unpin drops one reference from a pinned buffer. When the last
// reference is dropped the buffer is recycled (to the free pool, or to
// the driver with the cache disabled) and Unpin returns true.
func (c *Cache) Unpin(buf *sycl.Buffer) bool {
	c.mu.Lock()
	n, ok := c.pins[buf]
	if !ok {
		c.mu.Unlock()
		panic("memcache: unpin of unpinned buffer")
	}
	if n > 1 {
		c.pins[buf] = n - 1
		c.mu.Unlock()
		return false
	}
	delete(c.pins, buf)
	c.mu.Unlock()
	c.Free(buf)
	return true
}

// PinnedCount returns the number of distinct buffers currently pinned.
func (c *Cache) PinnedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pins)
}

// Warm pre-populates the free pool with n buffers of size words each,
// paying the driver allocation cost up front — at construction, while
// nothing is in flight — so the hot path never falls through to the
// driver for this working set (runtime allocations synchronize with
// in-flight work and serialize the pipeline). Warm allocations do not
// count toward the hit/miss statistics; with the cache disabled Warm is
// a no-op.
func (c *Cache) Warm(n, size int) {
	if !c.enabled || n <= 0 || size <= 0 {
		return
	}
	bufs := make([]*sycl.Buffer, n)
	for i := range bufs {
		bufs[i] = c.driverAlloc(size, nil)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i := sort.Search(len(c.free), func(i int) bool { return cap(c.free[i].Data) >= size })
	c.free = append(c.free[:i], append(bufs, c.free[i:]...)...)
}

// Stats returns cache hits and misses (driver allocations).
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// FreeCount returns the number of buffers currently in the free pool.
func (c *Cache) FreeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.free)
}

// UsedCount returns the number of buffers currently checked out.
func (c *Cache) UsedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.used)
}

// Release drops the entire free pool back to the driver, e.g. at
// context teardown.
func (c *Cache) Release() {
	c.mu.Lock()
	free := c.free
	c.free = nil
	c.mu.Unlock()
	for _, buf := range free {
		buf.Free()
	}
}

// ReleaseAll drops the free pool AND any buffers still checked out.
// For final teardown only, after every user of the cache has stopped:
// remaining used entries are orphans (e.g. allocations stranded by a
// panicking job) and are returned to the driver so the device's
// live-memory accounting balances. It returns how many orphaned
// buffers were reclaimed.
func (c *Cache) ReleaseAll() int {
	c.mu.Lock()
	used := c.used
	c.used = map[*sycl.Buffer]struct{}{}
	pins := c.pins
	c.pins = map[*sycl.Buffer]int{}
	c.mu.Unlock()
	orphans := len(used)
	for buf := range used {
		buf.Free()
	}
	if !c.enabled {
		// With the cache disabled pinned buffers are tracked only in
		// the pin map; reclaim them here so teardown balances.
		for buf := range pins {
			buf.Free()
			orphans++
		}
	}
	c.Release()
	return orphans
}
