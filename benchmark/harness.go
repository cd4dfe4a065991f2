package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// span is one interval the benchmark itself recorded around a call it
// made into the program: wall clock always, simulated clock when the
// open instance has one.
type span struct {
	Name      string  `json:"name"`
	Parent    int     `json:"parent"` // index of the enclosing span, -1 at the top
	Workload  string  `json:"workload"`
	Rep       int     `json:"rep"` // -1 outside the measured reps
	WallStart int64   `json:"wall_start_ns"`
	WallEnd   int64   `json:"wall_end_ns"`
	SimStart  float64 `json:"sim_start_s"`
	SimEnd    float64 `json:"sim_end_s"`
}

// recorder keeps the benchmark's own spans in memory until the run
// ends. It is used from the main goroutine only (the single submitter
// of every workload), so the open-span stack needs no lock.
type recorder struct {
	workload string
	rep      int
	sim      func() float64 // simulated seconds of the open instance, nil before construction
	spans    []span
	open     []int
}

func newRecorder(workload string) *recorder { return &recorder{workload: workload, rep: -1} }

func (r *recorder) simNow() float64 {
	if r.sim == nil {
		return 0
	}
	return r.sim()
}

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{
		Name: name, Parent: parent, Workload: r.workload, Rep: r.rep,
		SimStart: r.simNow(), WallStart: time.Now().UnixNano(),
	})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes span id (the innermost open one) and returns its wall seconds.
func (r *recorder) end(id int) float64 {
	s := &r.spans[id]
	s.WallEnd = time.Now().UnixNano()
	s.SimEnd = r.simNow()
	r.open = r.open[:len(r.open)-1]
	return float64(s.WallEnd-s.WallStart) / 1e9
}

// timed records fn as one span and returns its wall seconds.
func (r *recorder) timed(name string, fn func()) float64 {
	id := r.begin(name)
	fn()
	return r.end(id)
}

// write stores the spans as JSON in dir.
func (r *recorder) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), b, 0o644)
}

// machine describes where the numbers were taken; host-clock values
// from different machine blocks are not comparable.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func describeMachine() machine {
	m := machine{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", Go: runtime.Version(), Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout that is not a git repository (the acceptance driver's)
	// has no commit to name.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

func (m machine) String() string {
	return fmt.Sprintf("machine: nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s", m.NProc, m.GOMAXPROCS, m.CPU, m.Go, m.Commit)
}

// spinLen is the length of the array each goroutine of the spin loop
// works on: 128 KB, resident in a core's second-level cache.
const spinLen = 16 << 10

// spinMops times a fixed loop of modular-multiply butterflies, the
// inner loop of an NTT frozen here so that no change to the program
// moves it, on GOMAXPROCS goroutines at once, each over its own
// cache-resident array, and returns millions of butterflies per second.
// It reads the state of the machine: the loop is bound by the
// throughput of the multiplier and the first two cache levels, which is
// what a busy hyperthread sibling or a neighbouring VM takes away, so it
// slows down when the program's kernel bodies would (a dependent
// multiply-divide chain does not: it reads the same speed whatever the
// neighbours do). One call takes about 12 ms (under -short, 1 ms).
func spinMops(short bool) float64 {
	const (
		p  = 0x1fffffffffe00001 // a 61-bit NTT-friendly prime
		w  = 0x0123456789abcdef // a fixed twiddle factor below p
		wq = 0x091a2b3c4d6789a2 // floor(w * 2^64 / p), for Shoup's modular multiplication
	)
	passes := 500
	if short {
		passes = 40
	}
	threads := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := make([]uint64, spinLen)
			for i := range a {
				a[i] = uint64(i) * 0x9e3779b97f4a7c15 % p
			}
			h := spinLen / 2
			for pass := 0; pass < passes; pass++ {
				for i := 0; i < h; i++ {
					u, v := a[i], a[i+h]
					hi, _ := bits.Mul64(v, wq)
					x := v*w - hi*p
					if x >= p {
						x -= p
					}
					s, d := u+x, u+p-x
					if s >= p {
						s -= p
					}
					if d >= p {
						d -= p
					}
					a[i], a[i+h] = s, d
				}
			}
		}()
	}
	wg.Wait()
	return float64(threads*passes*spinLen/2) / time.Since(start).Seconds() / 1e6
}

// spinRef is the spin loop's rate on the reference machine, the one
// every host-clock end-to-end metric is stated for: what the 2-core VM
// this was sized on read in its busier hours (it reads up to 1000 when
// its neighbours are quiet).
const spinRef = 600.0

// gauge reads the state of the machine between the timed sections of a
// run (each set-up, each rep) and states what they measured for the
// reference machine. The machine's state flickers faster than a rep
// lasts and drifts by tens of percent over minutes, and the program's
// host time follows it, so a timed section is judged by the median of
// the spin samples taken just before and just after it, three each.
type gauge struct {
	short bool
	sens  float64   // the workload's exponent: its time moves as spin^-sens
	last  []float64 // the samples after the previous timed section
	all   []float64
}

// newGauge spins for a second and then takes the first samples. On
// the VM this was sized on the threads of a fresh process share one
// core for about its first half second (the kernel spreads them late),
// and a spin loop started then reads half of what it reads afterwards.
func newGauge(short bool, sens float64) *gauge {
	g := &gauge{short: short, sens: sens}
	for start := time.Now(); !short && time.Since(start) < time.Second; {
		spinMops(short)
	}
	g.sample()
	return g
}

func (g *gauge) sample() {
	g.last = []float64{spinMops(g.short), spinMops(g.short), spinMops(g.short)}
	g.all = append(g.all, g.last...)
}

// factor closes a timed section. A time measured in the section, times
// the factor, is that time on the reference machine; a rate is divided
// by it.
func (g *gauge) factor() float64 {
	around := append([]float64(nil), g.last...)
	g.sample()
	return math.Pow(median(append(around, g.last...))/spinRef, g.sens)
}

// driftPct is how far the second half of the run's samples sits from
// the first, in percent.
func (g *gauge) driftPct() float64 {
	first, second := median(g.all[:len(g.all)/2]), median(g.all[len(g.all)/2:])
	return 100 * math.Abs(second-first) / first
}

// disturbedDriftPct is the drift beyond which a run is printed as
// disturbed.
const disturbedDriftPct = 10.0
