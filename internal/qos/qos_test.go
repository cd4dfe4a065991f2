package qos

import (
	"math"
	"testing"
)

// backlogged builds a QueueState snapshot where every class has the
// given backlog length and head arrival time.
func backlogged(lens []int, heads []float64) []QueueState {
	qs := make([]QueueState, len(lens))
	for i := range qs {
		qs[i] = QueueState{Len: lens[i], HeadEnqueued: heads[i], OldestEnqueued: heads[i], HeadDeadline: NoDeadline()}
	}
	return qs
}

// TestWFQAchievesConfiguredShare pins the fairness contract: two
// always-backlogged classes with 3:1 weights receive service in 3:1
// proportion (exactly, in the deterministic single-job-dispatch
// model, up to a one-job transient).
func TestWFQAchievesConfiguredShare(t *testing.T) {
	classes := []Class{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}}
	p := WFQ(classes)
	counts := []int{0, 0}
	const picks = 400
	for i := 0; i < picks; i++ {
		qs := backlogged([]int{10, 10}, []float64{0, 0})
		k := p.Pick(float64(i), classes, qs)
		if k < 0 {
			t.Fatalf("pick %d returned -1 with backlogged queues", i)
		}
		counts[k]++
		p.Dispatched(k, 1)
	}
	// Exact steady state is 300/100; allow a one-round transient.
	if counts[0] < 295 || counts[0] > 305 {
		t.Fatalf("3:1 weighted classes split %v over %d picks, want ~3:1", counts, picks)
	}
	if counts[0]+counts[1] != picks {
		t.Fatalf("counts %v do not sum to %d", counts, picks)
	}
}

// TestWFQThreeWaySplit covers the default class weights (8:3:1).
func TestWFQThreeWaySplit(t *testing.T) {
	classes := DefaultClasses()
	p := WFQ(classes)
	counts := make([]int, len(classes))
	const picks = 1200
	for i := 0; i < picks; i++ {
		qs := backlogged([]int{5, 5, 5}, []float64{0, 0, 0})
		k := p.Pick(0, classes, qs)
		counts[k]++
		p.Dispatched(k, 1)
	}
	// weights 8:3:1 over 1200 picks -> 800/300/100 ± transient.
	want := []int{800, 300, 100}
	for i := range want {
		if d := counts[i] - want[i]; d < -10 || d > 10 {
			t.Fatalf("split %v over %d picks, want ~%v", counts, picks, want)
		}
	}
}

// TestWFQIdleClassBanksNoCredit pins the virtual-time clamp: a class
// that was idle while another was served does not accumulate credit
// and cannot monopolize the workers when it returns.
func TestWFQIdleClassBanksNoCredit(t *testing.T) {
	classes := []Class{{Name: "a", Weight: 1}, {Name: "b", Weight: 1}}
	p := WFQ(classes)
	// Phase 1: only class 0 is backlogged for 100 dispatches.
	for i := 0; i < 100; i++ {
		k := p.Pick(0, classes, backlogged([]int{10, 0}, []float64{0, 0}))
		if k != 0 {
			t.Fatalf("phase 1 pick = %d, want 0", k)
		}
		p.Dispatched(k, 1)
	}
	// Phase 2: class 1 returns. With equal weights the next 40 picks
	// must alternate (at most a one-pick initial run for class 1),
	// not hand class 1 a 100-pick monopoly.
	counts := []int{0, 0}
	for i := 0; i < 40; i++ {
		k := p.Pick(0, classes, backlogged([]int{10, 10}, []float64{0, 0}))
		counts[k]++
		p.Dispatched(k, 1)
	}
	if counts[1] > 21 {
		t.Fatalf("returning idle class took %d of 40 picks (banked credit); want ~20", counts[1])
	}
	if counts[0] < 19 {
		t.Fatalf("busy class starved on return: %v", counts)
	}
}

// TestStrictPriorityOrder pins the strict policy: the highest
// Priority backlogged class always wins, ties to the lowest index.
func TestStrictPriorityOrder(t *testing.T) {
	classes := []Class{{Priority: 2}, {Priority: 1}, {Priority: 0}, {Priority: 2}}
	p := StrictPriority(classes)
	if k := p.Pick(0, classes, backlogged([]int{1, 1, 1, 1}, []float64{0, 0, 0, 0})); k != 0 {
		t.Fatalf("pick = %d, want 0 (highest priority, lowest index)", k)
	}
	if k := p.Pick(0, classes, backlogged([]int{0, 1, 1, 1}, []float64{0, 0, 0, 0})); k != 3 {
		t.Fatalf("pick = %d, want 3", k)
	}
	if k := p.Pick(0, classes, backlogged([]int{0, 1, 1, 0}, []float64{0, 0, 0, 0})); k != 1 {
		t.Fatalf("pick = %d, want 1", k)
	}
	if k := p.Pick(0, classes, backlogged([]int{0, 0, 0, 0}, []float64{0, 0, 0, 0})); k != -1 {
		t.Fatalf("pick over empty queues = %d, want -1", k)
	}
}

// TestAgingBoundsStarvedClassWait is the starvation-protection pin:
// under strict priority with a continuously backlogged high-priority
// class, a low-priority head is dispatched as soon as its wait
// reaches the aging window — never later.
func TestAgingBoundsStarvedClassWait(t *testing.T) {
	classes := []Class{{Name: "hi", Priority: 1}, {Name: "lo", Priority: 0}}
	const window = 0.010
	p := WithAging(StrictPriority(classes), window)
	lowEnq := 0.0
	for _, tc := range []struct {
		now  float64
		want int
	}{
		{0.001, 0}, // fresh: strict priority holds
		{0.009, 0}, // just under the window: still the hi class
		{0.010, 1}, // exactly the window: the starved class overrides
		{0.015, 1}, // past the window: still overridden
	} {
		qs := []QueueState{
			{Len: 5, HeadEnqueued: tc.now, OldestEnqueued: tc.now, HeadDeadline: NoDeadline()},
			{Len: 1, HeadEnqueued: lowEnq, OldestEnqueued: lowEnq, HeadDeadline: NoDeadline()},
		}
		if k := p.Pick(tc.now, classes, qs); k != tc.want {
			t.Fatalf("now=%g: pick = %d, want %d", tc.now, k, tc.want)
		}
	}
	// Two overdue classes: the longest wait wins.
	qs := []QueueState{
		{Len: 1, HeadEnqueued: 0.02, OldestEnqueued: 0.02, HeadDeadline: NoDeadline()},
		{Len: 1, HeadEnqueued: 0.00, OldestEnqueued: 0.00, HeadDeadline: NoDeadline()},
	}
	if k := p.Pick(0.05, classes, qs); k != 1 {
		t.Fatalf("two overdue classes: pick = %d, want 1 (longest wait)", k)
	}
}

// TestAgingSeesTailUnderDeadlineOrdering is the regression for
// starvation under EDF: deadline ordering keeps fresh urgent jobs at
// the head, so the overdue job pinned at the tail is only visible via
// OldestEnqueued — aging must fire on it even though the head is new.
func TestAgingSeesTailUnderDeadlineOrdering(t *testing.T) {
	classes := []Class{{Name: "a"}, {Name: "b"}}
	const window, now = 0.010, 0.5
	p := WithAging(EDF(classes), window)
	qs := []QueueState{
		// Fresh urgent head, but a deadline-less job has been stuck at
		// the tail since t=0 (wait 0.5 >> window).
		{Len: 3, HeadEnqueued: now, HeadDeadline: now + 0.001, OldestEnqueued: 0},
		// The inner EDF pick: an even more urgent head, no old tail.
		{Len: 1, HeadEnqueued: now, HeadDeadline: now + 0.0001, OldestEnqueued: now},
	}
	if k := p.Pick(now, classes, qs); k != 0 {
		t.Fatalf("pick = %d, want 0 (aging must fire on the starved tail, not the head)", k)
	}
	// Without an overdue tail the inner EDF preference stands.
	qs[0].OldestEnqueued = now
	if k := p.Pick(now, classes, qs); k != 1 {
		t.Fatalf("pick = %d, want 1 (EDF order once nothing is overdue)", k)
	}
}

// TestEDFMeetsMeetableDeadlines is the EDF optimality pin on a
// deterministic single-server scenario with unit service time: the
// deadline set is meetable (EDF meets every deadline), while the
// arrival-order baseline provably misses one. The simulation drives
// Pick exactly as the dispatcher would.
func TestEDFMeetsMeetableDeadlines(t *testing.T) {
	classes := []Class{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	type jobState struct {
		deadline float64
		enq      float64
	}
	// Arrival order a(d=4), b(d=2), c(d=3); service starts at t=0.5,
	// unit service time. FIFO completes a@1.5 b@2.5 c@3.5 -> b misses
	// (2.5 > 2). EDF completes b@1.5 c@2.5 a@3.5 -> all meet.
	jobs := []jobState{{4, 0.0}, {2, 0.1}, {3, 0.2}}
	queued := []bool{true, true, true}
	p := EDF(classes)
	if !p.DeadlineOrdered() {
		t.Fatal("EDF must request deadline-ordered queues")
	}
	now := 0.5 // all three arrived, server free
	for served := 0; served < len(jobs); served++ {
		qs := make([]QueueState, len(classes))
		for i, q := range queued {
			if q {
				qs[i] = QueueState{Len: 1, HeadEnqueued: jobs[i].enq, HeadDeadline: jobs[i].deadline}
			}
		}
		k := p.Pick(now, classes, qs)
		if k < 0 {
			t.Fatalf("step %d: no pick with %v queued", served, queued)
		}
		now += 1 // unit service time
		if now > jobs[k].deadline {
			t.Fatalf("EDF missed a meetable deadline: job %d finished %g > %g", k, now, jobs[k].deadline)
		}
		queued[k] = false
		p.Dispatched(k, 1)
	}
	// Sanity: the FIFO baseline on the same scenario does miss.
	f := FIFO(classes)
	queued = []bool{true, true, true}
	now = 0.5
	missed := false
	for served := 0; served < len(jobs); served++ {
		qs := make([]QueueState, len(classes))
		for i, q := range queued {
			if q {
				qs[i] = QueueState{Len: 1, HeadEnqueued: jobs[i].enq, HeadDeadline: jobs[i].deadline}
			}
		}
		k := f.Pick(now, classes, qs)
		now += 1
		if now > jobs[k].deadline {
			missed = true
		}
		queued[k] = false
	}
	if !missed {
		t.Fatal("scenario is not discriminating: FIFO met every deadline too")
	}
}

// TestEDFFallsBackToArrivalOrder pins the deadline-less tie-break.
func TestEDFFallsBackToArrivalOrder(t *testing.T) {
	classes := []Class{{}, {}}
	p := EDF(classes)
	qs := []QueueState{
		{Len: 1, HeadEnqueued: 0.2, HeadDeadline: NoDeadline()},
		{Len: 1, HeadEnqueued: 0.1, HeadDeadline: NoDeadline()},
	}
	if k := p.Pick(1, classes, qs); k != 1 {
		t.Fatalf("deadline-less pick = %d, want 1 (earlier arrival)", k)
	}
	qs[0].HeadDeadline = 5
	if k := p.Pick(1, classes, qs); k != 0 {
		t.Fatalf("pick = %d, want 0 (finite deadline beats none)", k)
	}
}

// TestFIFOIgnoresClasses pins the baseline policy.
func TestFIFOIgnoresClasses(t *testing.T) {
	classes := []Class{{Priority: 10, Weight: 100}, {Priority: 0, Weight: 1}}
	p := FIFO(classes)
	qs := []QueueState{
		{Len: 1, HeadEnqueued: 0.5, HeadDeadline: 0.6},
		{Len: 1, HeadEnqueued: 0.4, HeadDeadline: NoDeadline()},
	}
	if k := p.Pick(1, classes, qs); k != 1 {
		t.Fatalf("FIFO pick = %d, want 1 (earliest arrival wins regardless of class)", k)
	}
}

// TestDefaultClassesShape pins the built-in table against the ClassID
// constants and the admission-semantics split.
func TestDefaultClassesShape(t *testing.T) {
	cs := DefaultClasses()
	if len(cs) != 3 {
		t.Fatalf("DefaultClasses has %d entries, want 3", len(cs))
	}
	if cs[Interactive].Name != "interactive" || !cs[Interactive].LatencySensitive {
		t.Fatalf("Interactive entry wrong: %+v", cs[Interactive])
	}
	if cs[Interactive].Share >= 1 {
		t.Fatal("Interactive must shed load (Share < 1)")
	}
	if cs[Batch].Share < 1 {
		t.Fatal("Batch must keep blocking backpressure (Share >= 1)")
	}
	if !(cs[Interactive].Weight > cs[Batch].Weight && cs[Batch].Weight > cs[Background].Weight) {
		t.Fatalf("weights not ordered: %+v", cs)
	}
	if math.IsInf(NoDeadline(), 1) != true {
		t.Fatal("NoDeadline must be +Inf")
	}
}
