package memcache

import (
	"math/rand"
	"sync"
	"testing"

	"xehe/internal/gpu"
	"xehe/internal/sycl"
)

// TestConcurrentMallocFree hammers one cache from many goroutines
// (run it with -race). Each goroutine stamps a unique token into every
// buffer it holds and re-checks it before freeing: if the cache ever
// handed the same buffer to two holders, the stamps collide.
func TestConcurrentMallocFree(t *testing.T) {
	d := gpu.NewDevice1()
	c := New(d, true)
	const (
		goroutines = 8
		iters      = 300
	)
	var wg sync.WaitGroup
	fail := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			token := uint64(g + 1)
			held := make([]*sycl.Buffer, 0, 4)
			for i := 0; i < iters; i++ {
				if len(held) > 0 && (rng.Intn(2) == 0 || len(held) == cap(held)) {
					j := rng.Intn(len(held))
					b := held[j]
					if b.Data[0] != token || b.Data[len(b.Data)-1] != token {
						fail <- "buffer stamp overwritten: double handout"
						return
					}
					c.Free(b)
					held = append(held[:j], held[j+1:]...)
					continue
				}
				size := 64 + rng.Intn(2048)
				b := c.Malloc(size)
				if len(b.Data) != size {
					fail <- "malloc returned wrong length"
					return
				}
				b.Data[0], b.Data[len(b.Data)-1] = token, token
				held = append(held, b)
			}
			for _, b := range held {
				if b.Data[0] != token {
					fail <- "buffer stamp overwritten at drain"
					return
				}
				c.Free(b)
			}
		}(g)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}

	if n := c.UsedCount(); n != 0 {
		t.Fatalf("%d buffers still checked out after all frees", n)
	}
	hits, misses := c.Stats()
	if misses != int64(c.FreeCount()) {
		t.Fatalf("free pool holds %d buffers but %d driver allocations were made", c.FreeCount(), misses)
	}
	if _, _, count := d.AllocStats(); count != misses {
		t.Fatalf("device saw %d driver allocations, cache recorded %d misses", count, misses)
	}
	if hits == 0 {
		t.Fatal("concurrent workload produced no cache hits")
	}
	c.Release()
	if live, _, _ := d.AllocStats(); live != 0 {
		t.Fatalf("leak: %d live device bytes after Release", live)
	}
}

// TestConcurrentDisabledCache repeats the hammer with the pass-through
// (disabled) cache: every Malloc is a driver allocation, every Free a
// driver release, and the device allocation accounting must balance.
func TestConcurrentDisabledCache(t *testing.T) {
	d := gpu.NewDevice1()
	c := New(d, false)
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 100; i++ {
				b := c.Malloc(32 + rng.Intn(256))
				b.Data[0] = uint64(g)
				c.Free(b)
			}
		}(g)
	}
	wg.Wait()
	live, _, count := d.AllocStats()
	if live != 0 {
		t.Fatalf("leak: %d live bytes", live)
	}
	if count != goroutines*100 {
		t.Fatalf("driver allocations = %d, want %d", count, goroutines*100)
	}
}

// TestConcurrentStatsReaders checks that the read-side methods can run
// against a storm of Malloc/Free without tearing (exercised under
// -race; the asserts are sanity bounds).
func TestConcurrentStatsReaders(t *testing.T) {
	d := gpu.NewDevice1()
	c := New(d, true)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := c.Malloc(16 + rng.Intn(128))
				c.Free(b)
			}
		}(g)
	}
	defer wg.Wait()
	defer close(stop)
	for i := 0; i < 2000; i++ {
		if c.UsedCount() < 0 || c.FreeCount() < 0 {
			t.Fatal("negative pool count")
		}
		hits, misses := c.Stats()
		if hits < 0 || misses < 0 {
			t.Fatal("negative stats")
		}
	}
}

// TestConcurrentTimingOnly hammers timing-only caches (recycling and
// pass-through) with growing request sizes, so the shared slab is
// regrown while other goroutines are handed views of it (run it with
// -race: no goroutine may touch a word). The accounting must balance
// exactly as the functional cache's does.
func TestConcurrentTimingOnly(t *testing.T) {
	for _, enabled := range []bool{true, false} {
		d := gpu.NewDevice1()
		c := NewTimingOnly(d, enabled)
		const (
			goroutines = 8
			iters      = 300
		)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < iters; i++ {
					a, b := c.Malloc(1+i*8+rng.Intn(64)), c.Malloc(1+rng.Intn(2048))
					c.Pin(a)
					c.Free(b)
					c.Unpin(a)
				}
			}(g)
		}
		wg.Wait()
		if n := c.UsedCount() + c.PinnedCount(); n != 0 {
			t.Fatalf("enabled=%v: %d buffers still held after all frees", enabled, n)
		}
		hits, misses := c.Stats()
		_, _, count := d.AllocStats()
		if enabled && (count != misses || hits+misses != 2*goroutines*iters || int64(c.FreeCount()) != misses) {
			t.Fatalf("recycling: %d hits, %d misses, %d pooled, %d driver allocations", hits, misses, c.FreeCount(), count)
		}
		if !enabled && count != 2*goroutines*iters {
			t.Fatalf("pass-through: %d driver allocations, want %d", count, 2*goroutines*iters)
		}
		c.Release()
		if live, _, _ := d.AllocStats(); live != 0 {
			t.Fatalf("enabled=%v: %d live device bytes after Release", enabled, live)
		}
	}
}
