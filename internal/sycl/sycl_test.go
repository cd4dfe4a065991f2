package sycl

import (
	"testing"

	"xehe/internal/gpu"
	"xehe/internal/isa"
)

// launch is Launch priced the way every caller prices it, into fresh
// events.
func launch(qs []*Queue, k *Kernel, deps ...gpu.Event) []gpu.Event {
	return Launch(nil, qs, k, Price(qs, k), deps...)
}

func TestSubmitRunsKernel(t *testing.T) {
	d := gpu.NewDevice1()
	q := NewQueue(d, isa.CompilerGenerated)
	ran := false
	evs := launch([]*Queue{q}, &Kernel{
		Range: NDRange{Global: [3]int{1, 1, 64}},
		Body:  func(g *gpu.GroupCtx) { ran = true },
	})
	if !ran {
		t.Fatal("kernel body did not run")
	}
	if len(evs) != 1 || evs[0].Done() <= 0 {
		t.Fatalf("launch on one queue returned %v, want one event with a completion time", evs)
	}
}

func TestLaunchDependsOn(t *testing.T) {
	d := gpu.NewDevice1()
	q := NewQueue(d, isa.CompilerGenerated)
	e1 := launch([]*Queue{q}, &Kernel{
		Range:   NDRange{Global: [3]int{1, 1, 1}},
		Profile: gpu.KernelProfile{GlobalBytes: 1e8, Pattern: gpu.PatternUnitStride},
	})
	// Queue on the other tile must still respect the dependency.
	q2 := &Queue{q: d.NewQueue(1), cg: isa.CompilerGenerated}
	e2 := launch([]*Queue{q2}, &Kernel{Range: NDRange{Global: [3]int{1, 1, 1}}}, e1...)
	if e2[0].Done() <= e1[0].Done() {
		t.Fatal("dependent launch must complete after its dependency")
	}
	// Events written over the dependencies they were ordered after (the
	// pipeline tail a context keeps) still order the launch after them.
	tail := append([]gpu.Event(nil), e1...)
	after := Launch(tail, []*Queue{q2}, &Kernel{Range: NDRange{Global: [3]int{1, 1, 1}}}, 0, tail...)
	if &after[0] != &tail[0] || after[0].Done() <= e1[0].Done() {
		t.Fatalf("launch into its own dependency slice: %v (reused=%v), want after %v", after, &after[0] == &tail[0], e1)
	}
}

func TestSubmitSplitAcrossTiles(t *testing.T) {
	d := gpu.NewDevice1()
	qs := NewQueuesAllTiles(d, isa.InlineASM)
	if len(qs) != 2 {
		t.Fatalf("want 2 queues, got %d", len(qs))
	}
	busy := launch(qs[:1], &Kernel{
		Range:   NDRange{Global: [3]int{1, 1, 1}},
		Profile: gpu.KernelProfile{GlobalBytes: 1e9, Pattern: gpu.PatternUnitStride},
	})
	runs := 0
	k := &Kernel{
		Range:   NDRange{Global: [3]int{1, 1, 1 << 12}},
		Body:    func(g *gpu.GroupCtx) { runs++ },
		Profile: gpu.KernelProfile{GlobalBytes: 1e9, Pattern: gpu.PatternUnitStride},
	}
	// The events land in the slice holding the dependency: both halves
	// must start when it completes, the idle tile's included, and so end
	// together — not one after the other's freshly written event.
	evs := append(make([]gpu.Event, 0, 2), busy...)
	evs = Launch(evs, qs, k, Price(qs, k), evs...)
	if runs != 1 {
		t.Fatalf("functional body must run exactly once, ran %d", runs)
	}
	if len(evs) != 2 {
		t.Fatalf("want 2 events, got %d", len(evs))
	}
	if evs[0].Done() != evs[1].Done() || evs[0].Done() < busy[0].Done()+Price(qs, k) {
		t.Errorf("halves done at %v and %v, want both at its dependency (%v) plus its price (%v) and the multi-queue tax",
			evs[0].Done(), evs[1].Done(), busy[0].Done(), Price(qs, k))
	}
	if whole := Price(qs[:1], k); Price(qs, k) >= whole {
		t.Errorf("a split half prices at %v, the whole kernel at %v", Price(qs, k), whole)
	}
}

func TestBufferAllocCopyRoundTrip(t *testing.T) {
	d := gpu.NewDevice1()
	q := NewQueue(d, isa.CompilerGenerated)
	b := MallocDevice(d, 256)
	if _, _, count := d.AllocStats(); count != 1 {
		t.Fatal("MallocDevice must hit the driver")
	}
	src := make([]uint64, 256)
	for i := range src {
		src[i] = uint64(i * i)
	}
	q.CopyInGather([]*Buffer{b}, [][]uint64{src})
	dst := make([]uint64, 256)
	ev := q.CopyOutScatter([][]uint64{dst}, []*Buffer{b})
	ev.Wait()
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
	b.Free()
	if live, _, _ := d.AllocStats(); live != 0 {
		t.Fatalf("live bytes after free = %d", live)
	}
}

func TestCodeGenSwitch(t *testing.T) {
	d := gpu.NewDevice2()
	q := NewQueue(d, isa.CompilerGenerated)
	if q.CodeGen() != isa.CompilerGenerated {
		t.Fatal("wrong initial codegen")
	}
	q.SetCodeGen(isa.InlineASM)
	if q.CodeGen() != isa.InlineASM {
		t.Fatal("codegen switch failed")
	}
}

// SetCodeGen switches codegen, used by the optimization-step sweeps.
func (q *Queue) SetCodeGen(cg isa.CodeGen) { q.cg = cg }
