package gpu

import (
	"testing"
)

// TestCopyEngineOverlapsCompute pins the copy-queue timing model: a
// transfer submitted on a copy queue runs on the per-tile copy
// timeline, so it completes while a long compute command is still in
// flight on the same tile, while a plain queue's transfer serializes
// behind it.
func TestCopyEngineOverlapsCompute(t *testing.T) {
	d := NewDevice1()
	q := d.NewQueue(0)
	kernel := q.submitOn("busy", 0, 1e6) // long compute command on tile 0

	cq := d.NewCopyQueue(0)
	h2d := cq.CopyH2D(1 << 10)
	if h2d.Done() >= kernel.Done() {
		t.Fatalf("copy-engine H2D (done %v) must overlap the busy compute command (done %v)",
			h2d.Done(), kernel.Done())
	}

	// The same transfer on a plain queue serializes behind the kernel.
	serial := q.CopyH2D(1 << 10)
	if serial.Done() <= kernel.Done() {
		t.Fatalf("compute-queue H2D (done %v) must serialize behind the kernel (done %v)",
			serial.Done(), kernel.Done())
	}
}

// TestCopyEngineHonorsEventDependencies pins the synchronization
// contract: a D2H on the copy queue that depends on a compute event
// cannot start before it, even though the copy timeline itself is
// idle.
func TestCopyEngineHonorsEventDependencies(t *testing.T) {
	d := NewDevice1()
	q := d.NewQueue(0)
	cq := d.NewCopyQueue(0)
	kernel := q.submitOn("busy", 0, 5e5)
	d2h := cq.CopyD2H(1<<10, kernel)
	if d2h.Done() <= kernel.Done() {
		t.Fatalf("dependent D2H (done %v) must complete after its compute dependency (done %v)",
			d2h.Done(), kernel.Done())
	}
}

// TestDeviceTimeIncludesCopyTimeline pins the wall-clock contract:
// SimulatedSeconds covers the busiest of compute, copy and host
// timelines, so a long tail transfer is never unaccounted.
func TestDeviceTimeIncludesCopyTimeline(t *testing.T) {
	d := NewDevice1()
	cq := d.NewCopyQueue(0)
	ev := cq.CopyH2D(1 << 24) // a big transfer, nothing on compute
	if got := d.DeviceTime(); got < ev.Done() {
		t.Fatalf("DeviceTime %v must include the copy timeline tail %v", got, ev.Done())
	}
	if got := d.CopyTime(); got != ev.Done() {
		t.Fatalf("CopyTime %v, want %v", got, ev.Done())
	}
	d.ResetClocks()
	if d.CopyTime() != 0 || d.DeviceTime() != 0 {
		t.Fatal("ResetClocks must clear the copy timeline")
	}
}

// CopyTime returns the completion time of the busiest copy engine.
func (d *Device) CopyTime() Cycles {
	d.mu.Lock()
	defer d.mu.Unlock()
	var m Cycles
	for _, t := range d.copyTime {
		if t > m {
			m = t
		}
	}
	return m
}
