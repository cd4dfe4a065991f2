package memcache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xehe/internal/gpu"
	"xehe/internal/sycl"
)

func TestReuseAvoidsDriverAllocation(t *testing.T) {
	d := gpu.NewDevice1()
	c := New(d, true)
	b1 := c.Malloc(1024)
	c.Free(b1)
	tBefore := d.HostTime()
	b2 := c.Malloc(512) // fits in the 1024 free buffer
	if d.HostTime() != tBefore {
		t.Error("cache hit must not cost host time")
	}
	if b2 != b1 {
		t.Error("cache must reuse the freed buffer")
	}
	if len(b2.Data) != 512 {
		t.Errorf("reused buffer length = %d, want 512", len(b2.Data))
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits/%d misses, want 1/1", hits, misses)
	}
	if _, _, count := d.AllocStats(); count != 1 {
		t.Errorf("driver allocations = %d, want 1", count)
	}
}

func TestWarmPreloadsFreePool(t *testing.T) {
	d := gpu.NewDevice1()
	c := New(d, true)
	c.Warm(8, 1024)
	if n := c.FreeCount(); n != 8 {
		t.Fatalf("free pool = %d buffers after Warm, want 8", n)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("Warm counted toward stats: %d hits/%d misses", hits, misses)
	}
	if _, _, count := d.AllocStats(); count != 8 {
		t.Fatalf("driver allocations = %d, want 8", count)
	}
	// Every request at or under the warm size must now be a hit with no
	// further driver traffic.
	for i := 0; i < 8; i++ {
		c.Free(c.Malloc(512 + 64*i))
	}
	hits, misses := c.Stats()
	if hits != 8 || misses != 0 {
		t.Fatalf("post-warm traffic = %d hits/%d misses, want 8/0", hits, misses)
	}
	if _, _, count := d.AllocStats(); count != 8 {
		t.Fatalf("driver allocations grew to %d after warm", count)
	}

	// Warm on a disabled cache is a no-op.
	off := New(gpu.NewDevice2(), false)
	off.Warm(4, 1024)
	if off.FreeCount() != 0 {
		t.Fatal("Warm on a disabled cache populated the pool")
	}
}

func TestDisabledCachePassesThrough(t *testing.T) {
	d := gpu.NewDevice1()
	c := New(d, false)
	b := c.Malloc(256)
	c.Free(b)
	b2 := c.Malloc(256)
	c.Free(b2)
	if _, _, count := d.AllocStats(); count != 2 {
		t.Errorf("driver allocations = %d, want 2 without cache", count)
	}
	if live, _, _ := d.AllocStats(); live != 0 {
		t.Errorf("leak: %d live bytes", live)
	}
}

func TestBestFitSelection(t *testing.T) {
	d := gpu.NewDevice1()
	c := New(d, true)
	small := c.Malloc(100)
	big := c.Malloc(10000)
	c.Free(big)
	c.Free(small)
	// Request 50: must take the 100-cap buffer, not the 10000 one.
	if got := c.Malloc(50); got != small {
		t.Error("best fit must pick the smallest adequate free buffer")
	}
}

func TestTooSmallFreeBufferIsSkipped(t *testing.T) {
	d := gpu.NewDevice1()
	c := New(d, true)
	b := c.Malloc(100)
	c.Free(b)
	big := c.Malloc(200)
	if big == b {
		t.Error("cache returned an undersized buffer")
	}
	if c.FreeCount() != 1 {
		t.Errorf("free pool size = %d, want 1 (the 100-word buffer)", c.FreeCount())
	}
}

func TestDoubleFreePanics(t *testing.T) {
	d := gpu.NewDevice1()
	c := New(d, true)
	b := c.Malloc(64)
	c.Free(b)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	c.Free(b)
}

// With recycling off the cache tracks no buffers; the buffer itself
// refuses a second free, which would otherwise refund the driver twice.
func TestDoubleFreePanicsWithRecyclingOff(t *testing.T) {
	d := gpu.NewDevice1()
	for _, c := range []*Cache{New(d, false), NewTimingOnly(d, false)} {
		var hdr sycl.Buffer
		b := c.MallocInto(64, &hdr)
		if b != &hdr {
			t.Fatal("a driver allocation with recycling off did not use the caller's header")
		}
		c.Free(b)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("timingOnly=%v: double free did not panic", c.TimingOnly())
				}
			}()
			c.Free(b)
		}()
		if live, _, _ := d.AllocStats(); live != 0 {
			t.Errorf("timingOnly=%v: %d live bytes after a double free, want 0", c.TimingOnly(), live)
		}
	}
	// A pooled buffer outlives its caller, so it never takes the caller's header.
	var hdr sycl.Buffer
	if c := New(d, true); c.MallocInto(64, &hdr) == &hdr {
		t.Error("a pooled buffer was laid into the caller's header")
	}
}

func TestRelease(t *testing.T) {
	d := gpu.NewDevice1()
	c := New(d, true)
	for i := 0; i < 4; i++ {
		c.Free(c.Malloc(128 << i))
	}
	if c.FreeCount() != 4 {
		t.Fatalf("free pool = %d, want 4", c.FreeCount())
	}
	c.Release()
	if c.FreeCount() != 0 {
		t.Fatal("release did not drain the pool")
	}
	if live, _, _ := d.AllocStats(); live != 0 {
		t.Fatalf("leak after release: %d bytes", live)
	}
}

// Property: after any interleaving of mallocs and frees, every
// checked-out buffer has adequate capacity, no buffer is handed out
// twice concurrently, and the used count is consistent.
func TestQuickCacheInvariants(t *testing.T) {
	type rec struct {
		buf  *sycl.Buffer
		size int
	}
	prop := func(ops []uint16, seed int64) bool {
		d := gpu.NewDevice1()
		c := New(d, true)
		rng := rand.New(rand.NewSource(seed))
		var live []rec
		for _, op := range ops {
			size := int(op)%4096 + 1
			if len(live) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(live))
				c.Free(live[i].buf)
				live = append(live[:i], live[i+1:]...)
				continue
			}
			b := c.Malloc(size)
			if len(b.Data) < size {
				return false
			}
			for _, l := range live {
				if l.buf == b {
					return false // same buffer handed out twice
				}
			}
			live = append(live, rec{buf: b, size: size})
		}
		return c.UsedCount() == len(live)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPinProtectsLiveBuffer(t *testing.T) {
	d := gpu.NewDevice1()
	c := New(d, true)
	b := c.Malloc(256)
	c.Pin(b)
	c.Pin(b) // two consumers
	if c.PinnedCount() != 1 {
		t.Fatalf("pinned count = %d, want 1 distinct buffer", c.PinnedCount())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Free of a pinned buffer did not panic")
			}
		}()
		c.Free(b)
	}()
	if freed := c.Unpin(b); freed {
		t.Fatal("first Unpin of two freed the buffer")
	}
	if freed := c.Unpin(b); !freed {
		t.Fatal("last Unpin did not recycle the buffer")
	}
	if c.UsedCount() != 0 || c.FreeCount() != 1 || c.PinnedCount() != 0 {
		t.Fatalf("after final unpin: used=%d free=%d pinned=%d, want 0/1/0",
			c.UsedCount(), c.FreeCount(), c.PinnedCount())
	}
}

func TestPinDisabledCache(t *testing.T) {
	d := gpu.NewDevice1()
	c := New(d, false)
	b := c.Malloc(128)
	c.Pin(b)
	if freed := c.Unpin(b); !freed {
		t.Fatal("Unpin on a disabled cache did not release the buffer")
	}
	if live, _, _ := d.AllocStats(); live != 0 {
		t.Fatalf("leak: %d live bytes after unpin with cache disabled", live)
	}
}

func TestPinUnknownBufferPanics(t *testing.T) {
	d := gpu.NewDevice1()
	c := New(d, true)
	b := c.Malloc(64)
	c.Free(b)
	defer func() {
		if recover() == nil {
			t.Fatal("Pin of a freed buffer did not panic")
		}
	}()
	c.Pin(b)
}

func TestReleaseAllReclaimsPinned(t *testing.T) {
	d := gpu.NewDevice1()
	c := New(d, true)
	c.Pin(c.Malloc(256))
	if got := c.ReleaseAll(); got != 1 {
		t.Fatalf("ReleaseAll reclaimed %d, want 1 (the pinned orphan)", got)
	}
	if c.PinnedCount() != 0 {
		t.Fatalf("pins survived ReleaseAll")
	}
	if live, _, _ := d.AllocStats(); live != 0 {
		t.Fatalf("leak: %d live bytes", live)
	}

	off := New(gpu.NewDevice2(), false)
	off.Pin(off.Malloc(64))
	if got := off.ReleaseAll(); got != 1 {
		t.Fatalf("disabled-cache ReleaseAll reclaimed %d, want 1", got)
	}
}

func TestReleaseAllReclaimsOrphans(t *testing.T) {
	d := gpu.NewDevice1()
	c := New(d, true)
	kept := c.Malloc(256) // returned properly
	_ = c.Malloc(512)     // orphaned: handle lost (e.g. a panicking job)
	c.Free(kept)
	if got := c.ReleaseAll(); got != 1 {
		t.Fatalf("ReleaseAll reclaimed %d orphans, want 1", got)
	}
	if c.UsedCount() != 0 || c.FreeCount() != 0 {
		t.Fatalf("pools not empty: used=%d free=%d", c.UsedCount(), c.FreeCount())
	}
	if live, _, _ := d.AllocStats(); live != 0 {
		t.Fatalf("leak: %d live device bytes after ReleaseAll", live)
	}
}

// accounting is everything the model can observe of a cache and its
// device: pool decisions, pool sizes, driver traffic and its cost.
type accounting struct {
	hits, misses       int64
	free, used, pinned int
	live, peak, allocs int64
	host               gpu.Cycles
}

func accountingOf(c *Cache, d *gpu.Device) accounting {
	var a accounting
	a.hits, a.misses = c.Stats()
	a.free, a.used, a.pinned = c.FreeCount(), c.UsedCount(), c.PinnedCount()
	a.live, a.peak, a.allocs = d.AllocStats()
	a.host = d.HostTime()
	return a
}

// TestTimingOnlyAccountingMatchesFunctional drives a functional and a
// timing-only cache through one seeded random sequence of every
// mutating call and requires identical accounting after every step:
// the timing-only mode may drop the buffers' memory, nothing else.
func TestTimingOnlyAccountingMatchesFunctional(t *testing.T) {
	for _, enabled := range []bool{true, false} {
		for seed := int64(1); seed <= 4; seed++ {
			devs := [2]*gpu.Device{gpu.NewDevice1(), gpu.NewDevice1()}
			caches := [2]*Cache{New(devs[0], enabled), NewTimingOnly(devs[1], enabled)}
			type heldBuf struct {
				bufs [2]*sycl.Buffer
				pins int
			}
			var held []*heldBuf
			rng := rand.New(rand.NewSource(seed))
			pick := func(ok func(*heldBuf) bool) int {
				for _, i := range rng.Perm(len(held)) {
					if ok(held[i]) {
						return i
					}
				}
				return -1
			}
			drop := func(i int) { held = append(held[:i], held[i+1:]...) }
			for step := 0; step < 600; step++ {
				op := "malloc"
				switch r := rng.Intn(20); {
				case r < 7:
					size := 1 + rng.Intn(4096)
					h := &heldBuf{}
					for k, c := range caches {
						h.bufs[k] = c.Malloc(size)
					}
					if a, b := h.bufs[0], h.bufs[1]; len(a.Data) != len(b.Data) || cap(a.Data) != cap(b.Data) {
						t.Fatalf("enabled=%v seed %d step %d: Malloc(%d) handed out len/cap %d/%d functional, %d/%d timing-only",
							enabled, seed, step, size, len(a.Data), cap(a.Data), len(b.Data), cap(b.Data))
					}
					held = append(held, h)
				case r < 12:
					op = "free"
					if i := pick(func(h *heldBuf) bool { return h.pins == 0 }); i >= 0 {
						for k, c := range caches {
							c.Free(held[i].bufs[k])
						}
						drop(i)
					}
				case r < 15:
					op = "pin"
					if i := pick(func(*heldBuf) bool { return true }); i >= 0 {
						for k, c := range caches {
							c.Pin(held[i].bufs[k])
						}
						held[i].pins++
					}
				case r < 18:
					op = "unpin"
					if i := pick(func(h *heldBuf) bool { return h.pins > 0 }); i >= 0 {
						recycled := [2]bool{}
						for k, c := range caches {
							recycled[k] = c.Unpin(held[i].bufs[k])
						}
						if recycled[0] != recycled[1] {
							t.Fatalf("enabled=%v seed %d step %d: Unpin recycled %v functional, %v timing-only", enabled, seed, step, recycled[0], recycled[1])
						}
						if held[i].pins--; recycled[0] {
							drop(i)
						}
					}
				case r < 19:
					op = "warm"
					n, size := 1+rng.Intn(3), 1+rng.Intn(4096)
					for _, c := range caches {
						c.Warm(n, size)
					}
				default:
					op = "release"
					for _, c := range caches {
						c.Release()
					}
				}
				if want, got := accountingOf(caches[0], devs[0]), accountingOf(caches[1], devs[1]); got != want {
					t.Fatalf("enabled=%v seed %d step %d (%s): timing-only cache reads %+v, functional %+v", enabled, seed, step, op, got, want)
				}
			}
			// Teardown: what the holder still owns goes back by Free;
			// buffers left pinned are ReleaseAll's to reclaim.
			for _, h := range held {
				if h.pins == 0 {
					for k, c := range caches {
						c.Free(h.bufs[k])
					}
				}
			}
			orphans := [2]int{caches[0].ReleaseAll(), caches[1].ReleaseAll()}
			if orphans[0] != orphans[1] {
				t.Fatalf("enabled=%v seed %d: ReleaseAll reclaimed %d functional, %d timing-only", enabled, seed, orphans[0], orphans[1])
			}
			if want, got := accountingOf(caches[0], devs[0]), accountingOf(caches[1], devs[1]); got != want || got.live != 0 {
				t.Fatalf("enabled=%v seed %d after ReleaseAll: timing-only %+v, functional %+v, want equal with nothing live", enabled, seed, got, want)
			}
		}
	}
}
