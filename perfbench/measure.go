package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"encnvm/internal/perf"
)

// workload is one benchmark workload. run executes one pass: the
// workload's set-up followed by its timed phase, recorded into p.
type workload interface {
	name() string
	run(p *pass)
}

// newWorkload resolves a workload name.
func newWorkload(name string, seed int64, sz size) (workload, error) {
	switch name {
	case "replay-grid":
		return newGrid(seed, sz), nil
	case "crash-campaign":
		return newCampaigns(seed, sz)
	}
	return nil, fmt.Errorf("unknown workload %q (replay-grid, crash-campaign)", name)
}

// size fixes how much work one pass of each workload does.
type size struct {
	GridItems, GridOps   int // the five paper workloads of the grid
	LargeItems, LargeOps int // the grid's structure sized past the L2
	CampaignItems        int
	CampaignOps          int
	StaticItems          int // traces of the static suite (traced crash-campaign)
	StaticOps            int
	CalibrationBuilds    int // traced crash-campaign: machines built to time one build
}

// fullSize is the benchmark's size.
var fullSize = size{
	GridItems: 256, GridOps: 128,
	LargeItems: 1 << 19, LargeOps: 128,
	CampaignItems: 8, CampaignOps: 12,
	StaticItems: 16, StaticOps: 24,
	CalibrationBuilds: 20,
}

// pass is one execution of a workload: set-up, then the timed phase.
// Both are recorded in parts whose order is the same on every pass, so
// the end-to-end times can take each part at its fastest pass.
type pass struct {
	check bool    // the first, untimed pass: also run the costly output checks
	tr    *tracer // non-nil on traced passes
	root  int     // the pass's span

	setupParts []time.Duration // set-up, part by part
	parts      []time.Duration // the timed phase, part by part
	setup      time.Duration   // sum of setupParts
	wall       time.Duration   // sum of parts
	work       float64         // work units done in the timed phase
	workers    int
	busy       time.Duration // summed cell walls
	cells      []time.Duration
	alloc      uint64 // bytes allocated over set-up plus the timed phase
	peak       uint64 // highest live heap sampled
	attempted  int
	failed     int
	problems   []string
	lines      []string           // digest lines, one or more per cell
	raw        map[string]float64 // per-layer raw sums (traced passes)

	live    []metrics.Sample // the live-heap gauge, read after every cell
	gcCPU   []metrics.Sample // the runtime's GC CPU estimate
	ms      runtime.MemStats // reused, so reading it allocates nothing
	alloc0  uint64
	cycles0 uint32
	pause0  uint64
	gcCPU0  float64
	cpu0    float64
}

func newPass(check bool, tr *tracer) *pass {
	return &pass{check: check, tr: tr, root: -1, workers: 1, raw: map[string]float64{},
		live:  []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
		gcCPU: []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}}
}

// begin starts the pass after a collection, so every pass starts from
// the same heap.
func (p *pass) begin() {
	runtime.GC()
	runtime.ReadMemStats(&p.ms)
	p.alloc0, p.cycles0, p.pause0 = p.ms.TotalAlloc, p.ms.NumGC, p.ms.PauseTotalNs
	p.gcCPU0, p.cpu0 = readGCCPU(p.gcCPU), processCPU()
	p.peak = readLive(p.live)
	p.root = p.tr.begin("pass", -1, -1)
}

// setupPart records one part of the set-up phase.
func (p *pass) setupPart(d time.Duration) {
	p.setupParts = append(p.setupParts, d)
	p.setup += d
	p.sampleHeap()
}

// timedPart records one part of the timed phase.
func (p *pass) timedPart(d time.Duration) {
	p.parts = append(p.parts, d)
	p.wall += d
}

// cellDone records one finished cell; a non-nil err fails it.
func (p *pass) cellDone(wall time.Duration, err error) {
	p.attempted++
	p.cells = append(p.cells, wall)
	p.busy += wall
	if err != nil {
		p.fail("%v", err)
	}
	p.sampleHeap()
}

// timedDone closes the timed phase: allocation and GC accounting stop
// here, so output checks and digests that follow are not charged. Every
// workload calls it once per pass.
func (p *pass) timedDone() {
	gcCPU, cpu := readGCCPU(p.gcCPU), processCPU()
	runtime.ReadMemStats(&p.ms)
	p.alloc = p.ms.TotalAlloc - p.alloc0
	p.add("gc_cycles", float64(p.ms.NumGC-p.cycles0))
	p.add("gc_pause_ns", float64(p.ms.PauseTotalNs-p.pause0))
	p.add("gc_cpu_s", gcCPU-p.gcCPU0)
	p.add("process_cpu_s", cpu-p.cpu0)
	p.tr.end(p.root)
}

// allocCounts returns the bytes and objects allocated so far. It stops
// the world, which flushes every P's allocation cache, so the counts are
// exact at the call (the runtime/metrics counters lag by a cached span).
func (p *pass) allocCounts() (bytes, objects uint64) {
	runtime.ReadMemStats(&p.ms)
	return p.ms.TotalAlloc, p.ms.Mallocs
}

func (p *pass) sampleHeap() {
	if live := readLive(p.live); live > p.peak {
		p.peak = live
	}
}

// fail counts one failed cell.
func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 8 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// add accumulates a per-layer raw quantity.
func (p *pass) add(key string, v float64) { p.raw[key] += v }

// guard runs fn and turns a panic into an error, so a panicking cell
// counts as failed instead of ending the run.
func guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// measureOptions configures one benchmark run.
type measureOptions struct {
	Seconds time.Duration
	Traced  bool
	Pin     string    // expected digest of the checked pass; "" when none is pinned
	CalPin  string    // expected digest of a traced run's calibration lines; "" when none
	Log     io.Writer // diagnostics
}

// result is what one run reports.
type result struct {
	Attempted int
	Failed    int
	Digest    string
	CalDigest string // digest of the calibration's lines; "" when it has none
	Metrics   []metric
	tracer    *tracer
}

type metric struct {
	Name  string
	Unit  string
	Value float64
}

// minPasses is the fewest timed passes a run makes, whatever --seconds
// says, so every part has several samples.
const minPasses = 3

// calibrator is a workload that measures, once per traced run and with
// the profiler and perf regions off, what its traced passes cannot.
type calibrator interface {
	calibrate(p *pass)
}

// measure runs one workload. The first pass checks every output and is
// not timed; it also warms the process. Timed passes then repeat until
// the measuring time is spent, each compared cell by cell with the
// checked pass. A traced run alternates untraced and traced passes, so
// tracing overhead is the ratio of their times.
func measure(w workload, o measureOptions) *result {
	res := &result{}
	log := o.Log
	checked := newPass(true, nil)
	c0 := time.Now()
	runPass(w, checked)
	fmt.Fprintf(log, "perfbench: %s checked pass took %.2fs\n", w.name(), time.Since(c0).Seconds())
	want := checked.lines
	res.Digest = digest(want)
	res.Attempted += checked.attempted
	res.Failed += checked.failed
	report(log, "checked pass", checked.problems)
	if o.Pin != "" && res.Digest != o.Pin {
		res.Failed++
		fmt.Fprintf(log, "perfbench: %s digest %s does not match pinned %s\n", w.name(), res.Digest, o.Pin)
	}

	var plain, traced []*pass
	if o.Traced {
		res.tracer = newTracer()
	}
	start := time.Now()
	var last time.Duration // the latest pass's duration
	for i := 0; ; i++ {
		need := minPasses
		if o.Traced {
			need = 2 // one untraced and one traced
		}
		// Start another pass only if one like the latest would end less
		// than half a pass past the measuring time, so a run ends within
		// half a pass of it instead of overrunning it by up to a pass.
		if len(plain)+len(traced) >= need && time.Since(start)+last/2 > o.Seconds {
			break
		}
		p0 := time.Now()
		var p *pass
		if o.Traced && i%2 == 1 {
			p = newPass(false, res.tracer)
			runTraced(w, p)
			traced = append(traced, p)
		} else {
			p = newPass(false, nil)
			runPass(w, p)
			plain = append(plain, p)
		}
		last = time.Since(p0)
		res.Attempted += p.attempted
		res.Failed += p.failed + mismatches(log, w.name(), want, p.lines)
		report(log, "timed pass", p.problems)
		fmt.Fprintf(log, "perfbench: %s pass %d traced=%v setup=%.4fs wall=%.4fs alloc=%.1fMiB peak=%.2fMiB cells=%d\n",
			w.name(), i, p.tr != nil, p.setup.Seconds(), p.wall.Seconds(), float64(p.alloc)/(1<<20), float64(p.peak)/(1<<20), len(p.cells))
	}
	if !o.Traced {
		res.Metrics = endToEnd(plain)
		return res
	}
	cal := newPass(false, res.tracer)
	if c, ok := w.(calibrator); ok {
		c.calibrate(cal)
		res.Attempted += cal.attempted
		res.Failed += cal.failed
		report(log, "calibration", cal.problems)
	}
	if len(cal.lines) > 0 {
		res.CalDigest = digest(cal.lines)
		if o.CalPin != "" && res.CalDigest != o.CalPin {
			res.Failed++
			fmt.Fprintf(log, "perfbench: %s calibration digest %s does not match pinned %s\n", w.name(), res.CalDigest, o.CalPin)
		}
	}
	res.Metrics = layerMetrics(plain, traced, cal.raw)
	logUnattributed(log, res.Metrics)
	return res
}

// logUnattributed sets the campaign sweeps' unattributed worker time
// beside the machine construction the calibration predicts for it, the
// cost no library perf region covers.
func logUnattributed(log io.Writer, ms []metric) {
	var unattributed, estimate float64
	for _, m := range ms {
		switch m.Name {
		case "crash.unattributed_ms":
			unattributed = m.Value
		case "crash.build_est_ms":
			estimate = m.Value
		}
	}
	if estimate > 0 {
		fmt.Fprintf(log, "perfbench: campaign sweep unattributed %.0f ms per pass; machine construction estimate %.0f ms (ratio %.2f)\n",
			unattributed, estimate, unattributed/estimate)
	}
}

// runPass runs one pass of w into p.
func runPass(w workload, p *pass) {
	p.begin()
	w.run(p)
}

// runTraced runs one pass with the library's perf regions active and
// the CPU profiler on; both feed p.raw.
func runTraced(w workload, p *pass) {
	prof := perf.NewProfiler()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		p.fail("cpu profile: %v", err)
	}
	perf.SetActive(prof)
	runPass(w, p)
	perf.SetActive(nil)
	pprof.StopCPUProfile()
	for _, ph := range prof.Phases() {
		p.add("perf:"+ph.Name, ph.WallMS*1e6)
	}
	if buf.Len() == 0 {
		return
	}
	shares, err := attributeProfile(buf.Bytes())
	if err != nil {
		p.fail("cpu profile: %v", err)
		return
	}
	for layer, n := range shares.all {
		p.add("cpu:"+layer, float64(n))
		p.add("cpu:total", float64(n))
	}
	for layer, n := range shares.large {
		p.add("cpu_large:"+layer, float64(n))
		p.add("cpu_large:total", float64(n))
	}
}

// mismatches counts the cells whose digest lines differ from the
// checked pass's, logging the first few.
func mismatches(log io.Writer, name string, want, got []string) int {
	if len(got) != len(want) {
		fmt.Fprintf(log, "perfbench: %s: pass produced %d digest lines, checked pass %d\n", name, len(got), len(want))
		return max(len(got), len(want)) - min(len(got), len(want))
	}
	n := 0
	for i := range want {
		if got[i] != want[i] {
			if n < 3 {
				fmt.Fprintf(log, "perfbench: %s: cell drifted:\n  checked %s\n  timed   %s\n", name, want[i], got[i])
			}
			n++
		}
	}
	return n
}

func report(log io.Writer, what string, problems []string) {
	for _, s := range problems {
		fmt.Fprintf(log, "perfbench: %s: %s\n", what, s)
	}
}

// digest is the short hash of a pass's digest lines.
func digest(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return "sha256:" + hex.EncodeToString(sum[:8])
}

// endToEnd derives the end-to-end metrics from untraced timed passes.
// Other load on the host only ever slows a part down, so each time is
// the sum over the pass's parts (grid cells, traces, campaign phases)
// of that part's fastest pass: a burst of load spoils one part of one
// pass, not the figure. Allocation is the median over the passes; the
// peak heap is the highest any pass reached, because a pass's peak
// depends on where its collections fall.
func endToEnd(ps []*pass) []metric {
	var setups, parts [][]time.Duration
	var alloc []float64
	peak, work := 0.0, 0.0
	for _, p := range ps {
		setups = append(setups, p.setupParts)
		parts = append(parts, p.parts)
		alloc = append(alloc, float64(p.alloc)/(1<<20))
		peak = max(peak, float64(p.peak)/(1<<20))
		work = p.work
	}
	wall := sumOfMinima(parts).Seconds()
	perSecond := 0.0
	if wall > 0 {
		perSecond = work / wall
	}
	return []metric{
		{"work_per_s", "1/s", perSecond},
		{"wall_s", "s", wall},
		{"setup_s", "s", sumOfMinima(setups).Seconds()},
		{"alloc_mb", "MiB", median(alloc)},
		{"peak_heap_mb", "MiB", peak},
	}
}

// sumOfMinima takes passes' parts, row by pass, and sums each part's
// minimum over the passes that have it.
func sumOfMinima(rows [][]time.Duration) time.Duration {
	var best []time.Duration
	for _, row := range rows {
		for i, d := range row {
			if i == len(best) {
				best = append(best, d)
			}
			best[i] = min(best[i], d)
		}
	}
	sum := time.Duration(0)
	for _, d := range best {
		sum += d
	}
	return sum
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest nearest-rank percentile of xs that
// still has at least minBeyond samples above its rank, with its value.
// ok is false when there are too few samples for any such percentile.
func tailPercentile(xs []float64, minBeyond int) (pct, value float64, ok bool) {
	n := len(xs)
	rank := n - minBeyond // 1-based rank with exactly minBeyond samples beyond it
	if rank < 1 {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return 100 * float64(rank) / float64(n), s[rank-1], true
}

// utilization is busy worker time over the workers' available time.
func utilization(busy, wall time.Duration, workers int) float64 {
	if wall <= 0 || workers <= 0 {
		return 0
	}
	return busy.Seconds() / (wall.Seconds() * float64(workers))
}

// readLive reads the live heap.
func readLive(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// readGCCPU reads the runtime's estimate of the CPU seconds spent in
// garbage collection. The runtime updates it when a cycle ends.
func readGCCPU(s []metrics.Sample) float64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
