package gpu

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"xehe/internal/isa"
)

// bodyLog records which (kernel, group) ran on each row, in the order
// they ran.
type bodyLog struct {
	mu   sync.Mutex
	rows [][][2]int // rows[row] = (kernel, group) pairs
}

func (l *bodyLog) add(kernel, row, group int) {
	l.mu.Lock()
	l.rows[row] = append(l.rows[row], [2]int{kernel, group})
	l.mu.Unlock()
}

func (l *bodyLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, r := range l.rows {
		n += len(r)
	}
	return n
}

const (
	seqP, seqQ = 2, 3 // rows = seqP × seqQ
	seqN       = 64   // items per row
)

// rowSeq returns three row-local kernels over data (one slice per
// row), each depending on the one before on the whole row: an
// elementwise step in 4 groups per row, a prefix sum over the row in
// one group, and another elementwise step in 8 groups. Every body logs
// its (kernel, row, group) into log when log is non-nil.
func rowSeq(data [][]uint64, log *bodyLog) []*Kernel {
	body := func(kernel int, f func(row []uint64, lo, hi int)) func(g *GroupCtx) {
		return func(g *GroupCtx) {
			r := g.P*seqQ + g.Q
			f(data[r], g.Base, g.Base+g.Size)
			if log != nil {
				log.add(kernel, r, g.Group)
			}
		}
	}
	mk := func(kernel, local int, f func(row []uint64, lo, hi int)) *Kernel {
		return &Kernel{
			Name:    fmt.Sprintf("seq%d", kernel),
			Range:   NDRange{Global: [3]int{seqP, seqQ, seqN}, Local: local},
			Body:    body(kernel, f),
			Profile: KernelProfile{GlobalBytes: 16 * seqP * seqQ * seqN, Pattern: PatternUnitStride},
		}
	}
	return []*Kernel{
		mk(0, 16, func(row []uint64, lo, hi int) {
			for i := lo; i < hi; i++ {
				row[i] = row[i]*3 + 1
			}
		}),
		mk(1, 0, func(row []uint64, lo, hi int) {
			for i := lo + 1; i < hi; i++ {
				row[i] += row[i-1]
			}
		}),
		mk(2, 8, func(row []uint64, lo, hi int) {
			for i := lo; i < hi; i++ {
				row[i] = row[i]*5 + uint64(i)
			}
		}),
	}
}

func seqData() [][]uint64 {
	data := make([][]uint64, seqP*seqQ)
	for r := range data {
		data[r] = make([]uint64, seqN)
		for i := range data[r] {
			data[r][i] = uint64(r*seqN + i)
		}
	}
	return data
}

// launchMajor runs the first n kernels of rowSeq one launch after
// another, unheld, and returns the memory they leave.
func launchMajor(t *testing.T, n int) [][]uint64 {
	t.Helper()
	data := seqData()
	q := NewDevice1().NewQueue(0)
	for _, k := range rowSeq(data, nil)[:n] {
		q.Launch(k, isa.InlineASM)
	}
	return data
}

// TestHeldSequenceRunsRowByRow pins the row-order contract: a held
// sequence of row-local kernels is submitted as it would be unheld (the
// same events), runs no body before Hold returns, and then leaves the
// same memory as launch-major execution, with every row running each
// kernel's groups exactly once and in launch order. An unheld launch is
// a sequence of one: its rows are handed out the same way, and each row
// runs its groups once, in group order.
func TestHeldSequenceRunsRowByRow(t *testing.T) {
	want := launchMajor(t, 3)
	var wantEvs []Event
	{
		q := NewDevice1().NewQueue(0)
		for _, k := range rowSeq(seqData(), nil) {
			wantEvs = append(wantEvs, q.Launch(k, isa.InlineASM))
		}
	}

	data := seqData()
	log := &bodyLog{rows: make([][][2]int, seqP*seqQ)}
	q := NewDevice1().NewQueue(0)
	q.Hold(func() {
		for i, k := range rowSeq(data, log) {
			if ev := q.Launch(k, isa.InlineASM); ev.Done() != wantEvs[i].Done() {
				t.Errorf("held launch %d completes at %v, unheld at %v", i, ev.Done(), wantEvs[i].Done())
			}
		}
		if n := log.count(); n != 0 {
			t.Fatalf("%d groups ran before Hold returned", n)
		}
	})

	if !slices.EqualFunc(data, want, slices.Equal) {
		t.Errorf("row-order memory differs from launch-major execution")
	}
	groups := []int{4, 1, 8}
	for r, ran := range log.rows {
		seen := map[[2]int]int{}
		for i, kg := range ran {
			seen[kg]++
			if i > 0 && kg[0] < ran[i-1][0] {
				t.Errorf("row %d ran kernel %d after kernel %d: %v", r, kg[0], ran[i-1][0], ran)
				break
			}
		}
		for k, n := range groups {
			for g := range n {
				if seen[[2]int{k, g}] != 1 {
					t.Errorf("row %d ran kernel %d group %d %d times, want 1", r, k, g, seen[[2]int{k, g}])
				}
			}
		}
		if len(ran) != 4+1+8 {
			t.Errorf("row %d ran %d groups, want %d", r, len(ran), 4+1+8)
		}
	}

	// After Hold the queue is un-held: a lone launch of the 8-groups-per-row
	// kernel runs at once, each row's groups once and in group order.
	lone := &bodyLog{rows: make([][][2]int, seqP*seqQ)}
	q.Launch(rowSeq(data, lone)[2], isa.InlineASM)
	for r, ran := range lone.rows {
		if len(ran) != 8 {
			t.Errorf("a lone launch ran %d groups on row %d, want 8", len(ran), r)
			continue
		}
		for g, kg := range ran {
			if kg != [2]int{2, g} {
				t.Errorf("a lone launch ran row %d as %v, want groups 0..7 of kernel 2 in order", r, ran)
				break
			}
		}
	}
}

// TestNestedHoldRunsAtOuterRelease: an inner Hold runs nothing when it
// returns; the outer one runs the launches of both levels.
func TestNestedHoldRunsAtOuterRelease(t *testing.T) {
	want := launchMajor(t, 2)
	data := seqData()
	log := &bodyLog{rows: make([][][2]int, seqP*seqQ)}
	ks := rowSeq(data, log)
	q := NewDevice1().NewQueue(0)
	q.Hold(func() {
		q.Hold(func() { q.Launch(ks[0], isa.InlineASM) })
		if n := log.count(); n != 0 {
			t.Fatalf("the inner Hold ran %d groups", n)
		}
		q.Launch(ks[1], isa.InlineASM)
	})
	if n := log.count(); n != 6*(4+1) {
		t.Errorf("the outer Hold ran %d groups, want %d", n, 6*(4+1))
	}
	if !slices.EqualFunc(data, want, slices.Equal) {
		t.Errorf("nested hold memory differs from launch-major execution")
	}
}

// mustPanic runs fn and returns what it panicked with, failing the test
// if it returned.
func mustPanic(t *testing.T, what string, fn func()) (r any) {
	t.Helper()
	defer func() {
		if r = recover(); r == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
	return nil
}

// TestHeldRowCountsMustMatch: a held sequence whose launches cover
// different row counts is no row-local sequence, and Hold panics on it;
// the queue is un-held afterwards.
func TestHeldRowCountsMustMatch(t *testing.T) {
	var ran atomic.Int64
	mk := func(p int) *Kernel {
		return &Kernel{Name: fmt.Sprintf("rows%d", p), Range: NDRange{Global: [3]int{p, 3, 8}},
			Body: func(*GroupCtx) { ran.Add(1) }}
	}
	q := NewDevice1().NewQueue(0)
	mustPanic(t, "a hold of a 6-row and a 9-row launch", func() {
		q.Hold(func() {
			q.Launch(mk(2), isa.InlineASM)
			q.Launch(mk(3), isa.InlineASM)
		})
	})
	ran.Store(0)
	q.Launch(mk(1), isa.InlineASM)
	if n := ran.Load(); n != 3 {
		t.Errorf("a launch after the failed Hold ran %d groups, want 3", n)
	}
}

// TestHeldLaunchLostOnTheWire: a submission lost on the wire inside a
// hold — the outermost one, or one nested in it — drops every held body
// and un-holds the queue, so the next launch runs its body at once: for
// a launch on one queue and for a split launch, whose body is held on
// the set's first queue.
func TestHeldLaunchLostOnTheWire(t *testing.T) {
	for _, split := range []bool{false, true} {
		t.Run(fmt.Sprintf("split=%v", split), func(t *testing.T) {
			for _, nested := range []bool{false, true} {
				d := NewDevice1()
				qs := d.NewQueues()
				launch := func(k *Kernel) {
					if split {
						LaunchSplit(nil, qs, k, k.Price(&d.Spec, isa.InlineASM, len(qs)))
					} else {
						qs[0].Launch(k, isa.InlineASM)
					}
				}
				data := seqData()
				log := &bodyLog{rows: make([][][2]int, seqP*seqQ)}
				ks := rowSeq(data, log)

				lost := func() {
					d.InjectLinkFault(1)
					launch(ks[1])
				}
				r := mustPanic(t, "a launch lost on the wire", func() {
					qs[0].Hold(func() {
						launch(ks[0])
						if nested {
							qs[0].Hold(lost)
						} else {
							lost()
						}
					})
				})
				if err, ok := r.(error); !ok || !errors.Is(err, ErrLinkFault) {
					t.Fatalf("nested=%v: panic %v, want an ErrLinkFault", nested, r)
				}
				if n := log.count(); n != 0 {
					t.Errorf("nested=%v: %d groups ran for the failed sequence", nested, n)
				}
				launch(ks[2])
				if n := log.count(); n != 6*8 {
					t.Errorf("nested=%v: the launch after the loss ran %d groups before returning, want %d", nested, n, 6*8)
				}
			}
		})
	}
}
