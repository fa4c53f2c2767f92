// Package perf is the simulator's *host*-performance observability
// layer: wall-clock phase timing, pprof capture, runtime.MemStats
// accounting, and runner-fleet utilization, written as a schema-tagged
// JSON sidecar next to (never inside) the deterministic simulation
// outputs.
//
// internal/probe observes the *simulated* machine in simulated time and
// is byte-deterministic; this package observes the simulator itself in
// wall-clock time and is inherently not. The two never mix: nothing
// here feeds simulated state, stdout figure rows, traces, metrics, or
// manifests, so every cmp-based determinism gate holds with profiling
// enabled (held by test and CI).
//
// The phase profiler follows probe.Probe's cost model: a nil *Profiler
// is the default, every method is nil-safe and returns immediately, and
// an enabled Region is allocation-free after a phase name's first use —
// a contract pinned by testing.AllocsPerRun tests, like the runtime
// pins each layer of the simulation hot loop holds its steady state to.
// Regions belong on per-phase boundaries (trace-build, replay, recover,
// verify), never on the per-write path.
package perf

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Profiler accumulates wall-clock time per named phase (trace-build,
// replay, recover, verify, per-figure...). Safe for concurrent use:
// runner workers time their cells against the same profiler.
type Profiler struct {
	mu    sync.Mutex
	index map[string]int
	names []string
	wall  []time.Duration
	count []uint64
	goHW  int // goroutine high-water, sampled at region boundaries
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{index: make(map[string]int)}
}

// Region is a running timer on one phase, closed with End. The zero
// Region (from a nil profiler) is a no-op.
type Region struct {
	p     *Profiler
	idx   int
	start time.Time
}

// Region opens a timed region for the named phase. On a nil profiler it
// is free: no clock read, no allocation, a zero Region back.
func (p *Profiler) Region(name string) Region {
	if p == nil {
		return Region{}
	}
	p.mu.Lock()
	i, ok := p.index[name]
	if !ok {
		// First use of a phase name: the only allocating path.
		i = len(p.names)
		p.index[name] = i
		p.names = append(p.names, name)
		p.wall = append(p.wall, 0)
		p.count = append(p.count, 0)
	}
	if g := runtime.NumGoroutine(); g > p.goHW {
		p.goHW = g
	}
	p.mu.Unlock()
	return Region{p: p, idx: i, start: time.Now()}
}

// End closes the region, accumulating its wall-clock duration.
func (r Region) End() {
	if r.p == nil {
		return
	}
	d := time.Since(r.start)
	r.p.mu.Lock()
	r.p.wall[r.idx] += d
	r.p.count[r.idx]++
	r.p.mu.Unlock()
}

// Phases returns the accumulated per-phase statistics in first-use
// order.
func (p *Profiler) Phases() []PhaseStat {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PhaseStat, len(p.names))
	for i, n := range p.names {
		out[i] = PhaseStat{
			Name:   n,
			Count:  p.count[i],
			WallMS: float64(p.wall[i]) / float64(time.Millisecond),
		}
	}
	return out
}

// GoroutineHighWater returns the largest goroutine count sampled at a
// region boundary (0 on a nil or unused profiler).
func (p *Profiler) GoroutineHighWater() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.goHW
}

// active is the process-wide profiler the instrumented phases report
// to, mirroring how runtime/pprof is process-global. It is nil — and
// every Begin call free — unless a CLI session with -perf-out is
// running.
var active atomic.Pointer[Profiler]

// SetActive installs p as the process-wide profiler (nil uninstalls).
func SetActive(p *Profiler) { active.Store(p) }

// Begin opens a region on the active profiler: one atomic load plus a
// nil check when profiling is off. The simulation phases (trace-build,
// replay, recover, verify) call this so any front end with -perf-out
// gets a phase breakdown without threading a profiler through every
// signature.
func Begin(name string) Region { return active.Load().Region(name) }
