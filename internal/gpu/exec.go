package gpu

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"xehe/internal/isa"
)

// NDRange describes a kernel launch geometry, mirroring
// sycl::nd_range<3>: a global range split into work-groups along the
// innermost dimension (as the paper's kernels do: {poly, q_base, n/2}
// with local size {1, 1, WORK_GROUP_SZ}).
type NDRange struct {
	Global [3]int
	Local  int // work-group size along dimension 2; 0 = whole extent
}

// Items returns the total number of work-items.
func (r NDRange) Items() int { return r.Global[0] * r.Global[1] * r.Global[2] }

// GroupCtx is the execution context handed to a functional kernel for
// one work-group. The kernel body iterates the group's items itself
// (matching how a GPU work-group executes), with Barrier as a
// checkpoint marker. A body that models shared local memory works on
// its group's slice of the global buffer in place: the simulator runs
// a group's items in sequence, so a staging copy would change nothing
// but the host time, and SLM traffic is priced from
// KernelProfile.SLMBytes.
type GroupCtx struct {
	// Group coordinates: P and Q index the outer two dimensions
	// (polynomial and RNS modulus in NTT kernels); Group is the group
	// index along dimension 2.
	P, Q, Group int
	// Base is the global index (dimension 2) of the group's first item.
	Base int
	// Size is the number of items in this group.
	Size int
}

// Barrier marks a work-group barrier in a kernel body. It is a no-op:
// the simulator executes a group's items sequentially, so every
// earlier stage is already complete, and barrier drain cost is priced
// from KernelProfile.Barriers, which the kernel states itself.
func (g *GroupCtx) Barrier() {}

// Kernel is a functional GPU kernel: a body executed per work-group
// plus its analytic profile.
type Kernel struct {
	Name    string
	Range   NDRange
	Body    func(g *GroupCtx)
	Profile KernelProfile
}

// name is what the command log calls a launch of the kernel: its
// profile's name, defaulted from the kernel's.
func (k *Kernel) name() string {
	if k.Profile.Name != "" {
		return k.Profile.Name
	}
	return k.Name
}

// items returns the work-item count one submission of the kernel
// carries, launched whole (split <= 1) or split across split queues:
// the profile's, defaulted from the range where the profile leaves it
// out. Each sub-submission of a split carries 1/EffectiveTiles(split)
// of the work, so the per-tile timelines reproduce the paper's
// dual-tile scaling of +49.5%-78.2% rather than a perfect 2x.
func (k *Kernel) items(spec *DeviceSpec, split int) int {
	n := k.Profile.Items
	if n == 0 {
		n = k.Range.Items()
	}
	if split > 1 {
		n = int(float64(n)/spec.EffectiveTiles(split)) + 1
	}
	return n
}

// Price returns the cycles one submission of the kernel costs on a
// device of the given spec under cg, launched whole on one queue
// (split <= 1) or split evenly across split queues. It is the one
// pricing rule of every launch: Launch prices with it, and LaunchPriced
// and LaunchSplit submit what their caller priced with it — per launch
// for elementwise kernels, once per plan entry and device for the NTT
// engine's. The kernel itself is never written, so one descriptor can
// be priced and launched from any number of goroutines.
func (k *Kernel) Price(spec *DeviceSpec, cg isa.CodeGen, split int) Cycles {
	p := k.Profile
	p.Items = k.items(spec, split)
	if split > 1 {
		eff := spec.EffectiveTiles(split)
		p.GlobalBytes /= eff
		p.SLMBytes /= eff
	}
	return p.Time(spec, cg)
}

// Launch executes the kernel functionally (real computation, groups
// run concurrently on the host's cores) and enqueues its analytic cost
// on the queue's tile timeline. It returns the completion event of the
// simulated submission.
func (q *Queue) Launch(k *Kernel, cg isa.CodeGen, deps ...Event) Event {
	return q.LaunchPriced(k, k.Price(&q.dev.Spec, cg, 1), deps...)
}

// LaunchPriced is Launch with the cost already known: price must be
// k.Price(spec, cg, 1) for this queue's device. While the queue is held
// (Hold) the body runs when the outermost Hold returns.
func (q *Queue) LaunchPriced(k *Kernel, price Cycles, deps ...Event) Event {
	ev := q.submitOn(k.name(), k.items(&q.dev.Spec, 1), price, deps...)
	q.give(k)
	return ev
}

// LaunchSplit executes the kernel functionally once, but splits its
// analytic cost evenly across the given queues (explicit multi-tile
// submission through multiple queues, Section III-C.2): each
// sub-submission costs price, which must be k.Price(spec, cg,
// len(queues)). The body is handed to, and run by, the set's first
// queue. The events of all sub-submissions are written into evs (grown
// only when it has no room for them), which it returns. evs may share
// its backing array with deps: every sub-submission waits for the
// latest of deps, read before any event is written.
func LaunchSplit(evs []Event, queues []*Queue, k *Kernel, price Cycles, deps ...Event) []Event {
	after := latest(deps)
	items := k.items(&queues[0].dev.Spec, len(queues))
	if cap(evs) < len(queues) {
		evs = make([]Event, len(queues))
	}
	evs = evs[:len(queues)]
	for i, q := range queues {
		evs[i] = q.submitOn(k.name(), items, price, after)
	}
	queues[0].give(k)
	return evs
}

// Hold runs fn with the queue held: each launch in fn is still
// submitted (priced and placed on the timelines) at once, but its body
// is kept, by value, until the outermost Hold returns and runs every
// kept body row by row. Holds nest. The launches of one hold must be a
// row-local sequence over one row space: each has the same
// Global[0]×Global[1] rows, and a body's groups on row r read and write
// only what that row's groups of the launches before and after it
// touch, besides data no launch of the sequence writes (ARCHITECTURE.md,
// "Row order"). If fn panics (a launch lost on the wire, a panic
// between launches), its sequence has failed: the kept bodies are
// dropped and the queue's next launch runs its body. A queue is used by
// one goroutine at a time, and so is its hold.
func (q *Queue) Hold(fn func()) {
	q.depth++
	ok := false
	defer func() {
		q.depth--
		if !ok {
			clear(q.held)
			q.held = q.held[:0]
		}
	}()
	fn()
	ok = true
	if q.depth == 1 { // the outermost Hold; the deferred call un-holds
		q.runHeld()
	}
}

// give hands k's body to the queue: a timing-only kernel (nil Body) has
// none, a held queue keeps it, and an unheld one runs it now as a
// sequence of one. The kept list is reused, so a warm launch allocates
// nothing.
func (q *Queue) give(k *Kernel) {
	if k.Body == nil {
		return
	}
	q.held = append(q.held, *k)
	if q.depth == 0 {
		q.runHeld()
	}
}

// runHeld runs the kept bodies: rows are handed out across the host's
// cores, and each row goes through every kept launch's groups in launch
// order while it is still in the core's cache. The list is reset before
// it runs. A kept sequence whose launches do not all have the same row
// count panics.
func (q *Queue) runHeld() {
	ks := q.held
	q.held = ks[:0]
	defer clear(ks)
	runGroups(ks)
}

// rows is the number of rows the kernel's range covers: the index over
// Global[0]×Global[1] that a row-local sequence shares.
func (k *Kernel) rows() int { return k.Range.Global[0] * k.Range.Global[1] }

// local is the kernel's work-group size along dimension 2.
func (k *Kernel) local() int {
	g2 := k.Range.Global[2]
	if local := k.Range.Local; local > 0 && local < g2 {
		return local
	}
	return g2
}

// groupsPerRow is the number of work-groups one row splits into.
func (k *Kernel) groupsPerRow() int {
	return (k.Range.Global[2] + k.local() - 1) / k.local()
}

// runGroups runs the work-groups of ks — one launch, or a held sequence
// over one row space — on up to GOMAXPROCS goroutines. Rows are handed
// out one by one, and a row runs each launch's groups in launch order.
func runGroups(ks []Kernel) {
	if len(ks) == 0 {
		return
	}
	rows := ks[0].rows()
	for i := range ks {
		if ks[i].rows() != rows {
			panic(fmt.Sprintf("gpu: held launches %q (%d rows) and %q (%d rows) do not share one row space",
				ks[0].name(), rows, ks[i].name(), ks[i].rows()))
		}
	}
	run := func(ctx *GroupCtx, row int) {
		for i := range ks {
			for grp := range ks[i].groupsPerRow() {
				ks[i].runGroup(ctx, row, grp)
			}
		}
	}

	workers := min(runtime.GOMAXPROCS(0), rows)
	if workers <= 1 {
		ctx := GroupCtx{}
		for row := range rows {
			run(&ctx, row)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			ctx := GroupCtx{}
			for {
				row := int(next.Add(1)) - 1
				if row >= rows {
					return
				}
				run(&ctx, row)
			}
		}()
	}
	wg.Wait()
}

// runGroup runs work-group grp of the given row.
func (k *Kernel) runGroup(ctx *GroupCtx, row, grp int) {
	g2, local := k.Range.Global[2], k.local()
	base := grp * local
	size := min(local, g2-base)
	ctx.P, ctx.Q, ctx.Group, ctx.Base, ctx.Size = row/k.Range.Global[1], row%k.Range.Global[1], grp, base, size
	k.Body(ctx)
}
