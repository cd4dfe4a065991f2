package sycl

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"xehe/internal/gpu"
)

func fillRandom(rng *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// TestCopyGatherScatterRoundTripRagged round-trips a ragged batch
// (rows of different lengths, as a final partial batch produces)
// through CopyInGather and CopyOutScatter: every row must land
// bit-exactly in its own device buffer and survive the way back, and
// each direction must cost exactly one submission sized at the row
// sum.
func TestCopyGatherScatterRoundTripRagged(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d := gpu.NewDevice1()
	q := NewQueue(d, 0)
	sizes := []int{512, 128, 1024, 64}
	total := 0
	srcs := make([][]uint64, len(sizes))
	bufs := make([]*Buffer, len(sizes))
	for i, n := range sizes {
		srcs[i] = fillRandom(rng, n)
		bufs[i] = MallocDevice(d, n)
		total += n
	}
	// The transfer starts at the host clock (driver allocations above
	// advanced it; the tile timeline is empty), so the expected
	// completion is host + enqueue cost + one transfer over the row sum.
	hostBefore := d.HostTime()
	evIn := q.CopyInGather(bufs, srcs)
	wantDone := hostBefore + d.Spec.HostSubmitCycles + float64(total*8)/d.Spec.PCIeBytesPerCycle
	if math.Abs(evIn.Done()-wantDone) > 1e-9*wantDone {
		t.Fatalf("gathered H2D done at %v, want %v (one submission over the row sum)", evIn.Done(), wantDone)
	}
	for i := range srcs {
		for j := range srcs[i] {
			if bufs[i].Data[j] != srcs[i][j] {
				t.Fatalf("row %d word %d mismatch after the gathered upload", i, j)
			}
		}
	}
	dsts := make([][]uint64, len(sizes))
	for i, n := range sizes {
		dsts[i] = make([]uint64, n)
	}
	// The download starts once it is enqueued and the upload ahead of it
	// on the in-order queue is done.
	start := math.Max(evIn.Done(), d.HostTime()+d.Spec.HostSubmitCycles)
	evOut := q.CopyOutScatter(dsts, bufs)
	wantDone = start + float64(total*8)/d.Spec.PCIeBytesPerCycle
	if math.Abs(evOut.Done()-wantDone) > 1e-9*wantDone {
		t.Fatalf("scattered D2H done at %v, want %v (one submission over the row sum)", evOut.Done(), wantDone)
	}
	for i := range srcs {
		for j := range srcs[i] {
			if dsts[i][j] != srcs[i][j] {
				t.Fatalf("row %d word %d: got %d want %d", i, j, dsts[i][j], srcs[i][j])
			}
		}
	}
}

// TestCopyGatherWithoutStagingStillExact pins the row copies of a
// gathered upload into buffers that already hold data, as recycled
// ones do: each row overwrites exactly its own prefix, and the words of
// a buffer past its row, like every other buffer, stay as they were.
func TestCopyGatherWithoutStagingStillExact(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	d := gpu.NewDevice1()
	q := NewQueue(d, 0)
	srcs := [][]uint64{fillRandom(rng, 256), fillRandom(rng, 100)}
	bufs := []*Buffer{MallocDevice(d, 256), MallocDevice(d, 256)}
	old := make([][]uint64, len(bufs))
	for i, b := range bufs {
		copy(b.Data, fillRandom(rng, len(b.Data)))
		old[i] = append([]uint64(nil), b.Data...)
	}
	q.CopyInGather(bufs, srcs)
	for i, b := range bufs {
		for j := range b.Data {
			want := old[i][j]
			if j < len(srcs[i]) {
				want = srcs[i][j]
			}
			if b.Data[j] != want {
				t.Fatalf("buffer %d word %d: got %d want %d after a gathered upload", i, j, b.Data[j], want)
			}
		}
	}
}

// TestCopyQueueEventOrdering pins the copy/compute synchronization
// contract end to end on the sycl layer: an upload on the copy queue
// overlaps an in-flight kernel, a kernel depending on that upload
// starts after it, and a download depending on the kernel completes
// after the kernel — the exact event chain the fused transfer
// pipeline relies on.
func TestCopyQueueEventOrdering(t *testing.T) {
	d := gpu.NewDevice1()
	q := NewQueue(d, 0)
	cq := NewCopyQueueOnTile(d, 0)

	// Allocate before the kernel: driver allocations drain in-flight
	// work, which would serialize the very overlap under test.
	b := MallocDevice(d, 256)
	busy := launch([]*Queue{q}, &Kernel{
		Range:   NDRange{Global: [3]int{1, 1, 1}},
		Profile: gpu.KernelProfile{GlobalBytes: 1e9, Pattern: gpu.PatternUnitStride},
	})[0]
	up := cq.CopyInGather([]*Buffer{b}, [][]uint64{make([]uint64, 256)})
	if up.Done() >= busy.Done() {
		t.Fatalf("copy-queue upload (done %v) must overlap the busy kernel (done %v)", up.Done(), busy.Done())
	}
	dependent := launch([]*Queue{q}, &Kernel{Range: NDRange{Global: [3]int{1, 1, 1}}}, up)[0]
	if dependent.Done() <= up.Done() {
		t.Fatal("kernel depending on the upload must complete after it")
	}
	down := cq.CopyOutScatter([][]uint64{make([]uint64, 256)}, []*Buffer{b}, dependent)
	if down.Done() <= dependent.Done() {
		t.Fatal("download depending on the kernel must complete after it")
	}
}

// TestConcurrentGatheredCopies drives gathered copies from several
// goroutines on per-tile copy queues — the shape the scheduler's
// worker pool produces — and is meaningful under -race: the simulator
// must serialize its clock accounting internally.
func TestConcurrentGatheredCopies(t *testing.T) {
	d := gpu.NewDevice1()
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			cq := NewCopyQueueOnTile(d, w%d.Spec.Tiles)
			for i := 0; i < 50; i++ {
				src := fillRandom(rng, 512)
				b := MallocDevice(d, 512)
				cq.CopyInGather([]*Buffer{b}, [][]uint64{src})
				dst := make([]uint64, 512)
				cq.CopyOutScatter([][]uint64{dst}, []*Buffer{b})
				for j := range src {
					if dst[j] != src[j] {
						t.Errorf("worker %d iter %d word %d mismatch", w, i, j)
						return
					}
				}
				b.Free()
			}
		}(w)
	}
	wg.Wait()
}
