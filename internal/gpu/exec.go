package gpu

import (
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
// k.Price(spec, cg, 1) for this queue's device.
func (q *Queue) LaunchPriced(k *Kernel, price Cycles, deps ...Event) Event {
	runGroups(k)
	return q.submitOn(k.name(), k.items(&q.dev.Spec, 1), price, false, deps...)
}

// LaunchSplit executes the kernel functionally once, but splits its
// analytic cost evenly across the given queues (explicit multi-tile
// submission through multiple queues, Section III-C.2): each
// sub-submission costs price, which must be k.Price(spec, cg,
// len(queues)). The events of all sub-submissions are written into evs
// (grown only when it has no room for them), which it returns. evs may
// share its backing array with deps: every sub-submission waits for the
// latest of deps, read before any event is written.
func LaunchSplit(evs []Event, queues []*Queue, k *Kernel, price Cycles, deps ...Event) []Event {
	runGroups(k)
	after := latest(deps)
	items := k.items(&queues[0].dev.Spec, len(queues))
	if cap(evs) < len(queues) {
		evs = make([]Event, len(queues))
	}
	evs = evs[:len(queues)]
	for i, q := range queues {
		evs[i] = q.submitOn(k.name(), items, price, false, after)
	}
	return evs
}

// runGroups executes every work-group of the kernel on a worker pool.
func runGroups(k *Kernel) {
	if k.Body == nil {
		return
	}
	g2 := k.Range.Global[2]
	local := k.Range.Local
	if local <= 0 || local > g2 {
		local = g2
	}
	groupsPerRow := (g2 + local - 1) / local
	total := k.Range.Global[0] * k.Range.Global[1] * groupsPerRow

	workers := runtime.GOMAXPROCS(0)
	if workers > total {
		workers = total
	}
	if workers <= 1 {
		ctx := GroupCtx{}
		for idx := 0; idx < total; idx++ {
			runOneGroup(k, &ctx, idx, groupsPerRow, local, g2)
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
				idx := int(next.Add(1)) - 1
				if idx >= total {
					return
				}
				runOneGroup(k, &ctx, idx, groupsPerRow, local, g2)
			}
		}()
	}
	wg.Wait()
}

func runOneGroup(k *Kernel, ctx *GroupCtx, idx, groupsPerRow, local, g2 int) {
	grp := idx % groupsPerRow
	row := idx / groupsPerRow
	q := row % k.Range.Global[1]
	p := row / k.Range.Global[1]
	base := grp * local
	size := local
	if base+size > g2 {
		size = g2 - base
	}
	ctx.P, ctx.Q, ctx.Group, ctx.Base, ctx.Size = p, q, grp, base, size
	k.Body(ctx)
}
