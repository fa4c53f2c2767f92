package perf

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"encnvm/internal/runner"
)

func TestProfilerAccumulates(t *testing.T) {
	p := NewProfiler()
	for i := 0; i < 3; i++ {
		r := p.Region("replay")
		r.End()
	}
	p.Region("verify").End()
	phases := p.Phases()
	if len(phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(phases))
	}
	if phases[0].Name != "replay" || phases[0].Count != 3 {
		t.Errorf("phase[0] = %+v, want replay count 3", phases[0])
	}
	if phases[1].Name != "verify" || phases[1].Count != 1 {
		t.Errorf("phase[1] = %+v, want verify count 1", phases[1])
	}
	if p.GoroutineHighWater() < 1 {
		t.Errorf("goroutine high-water = %d, want >= 1", p.GoroutineHighWater())
	}
}

func TestNilProfilerIsFreeAndAllocationFree(t *testing.T) {
	var p *Profiler
	p.Region("anything").End() // must not panic
	if p.Phases() != nil {
		t.Error("nil profiler Phases != nil")
	}
	if n := testing.AllocsPerRun(100, func() {
		r := p.Region("replay")
		r.End()
	}); n != 0 {
		t.Errorf("nil Region allocates %v per op, want 0", n)
	}
	// Begin on a cleared active profiler is the disabled-CLI fast path.
	SetActive(nil)
	if n := testing.AllocsPerRun(100, func() {
		Begin("replay").End()
	}); n != 0 {
		t.Errorf("disabled Begin allocates %v per op, want 0", n)
	}
}

func TestEnabledRegionSteadyStateAllocationFree(t *testing.T) {
	p := NewProfiler()
	p.Region("replay").End() // first use allocates the slot
	if n := testing.AllocsPerRun(100, func() {
		p.Region("replay").End()
	}); n != 0 {
		t.Errorf("steady-state Region allocates %v per op, want 0", n)
	}
}

func BenchmarkRegionDisabled(b *testing.B) {
	var p *Profiler
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Region("replay").End()
	}
}

func BenchmarkRegionEnabled(b *testing.B) {
	p := NewProfiler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Region("replay").End()
	}
}

func TestReportRoundTrip(t *testing.T) {
	in := &Report{
		Tool:   "nvmsim",
		Args:   []string{"-design", "sca", "-perf-out", "perf.json"},
		Build:  ReadBuild(),
		WallMS: 123.5,
		Phases: []PhaseStat{{Name: "replay", Count: 2, WallMS: 100}},
		Host:   HostStats{GoMaxProcs: 8, Mallocs: 42},
		Runner: &RunnerStats{Cells: 10, OK: 9, Failed: 1, Workers: 4},
	}
	var buf bytes.Buffer
	if err := EncodeReport(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema != ReportSchema {
		t.Errorf("schema = %q, want %q", out.Schema, ReportSchema)
	}
	if out.Tool != in.Tool || out.WallMS != in.WallMS {
		t.Errorf("round trip lost fields: %+v", out)
	}
	if len(out.Phases) != 1 || out.Phases[0] != in.Phases[0] {
		t.Errorf("phases = %+v", out.Phases)
	}
	if out.Runner == nil || *out.Runner != *in.Runner {
		t.Errorf("runner = %+v", out.Runner)
	}
	if out.Build == nil || out.Build.GoVersion == "" {
		t.Errorf("build provenance missing: %+v", out.Build)
	}
}

func TestDecodeReportRejectsWrongSchema(t *testing.T) {
	if _, err := DecodeReport(strings.NewReader(`{"schema":"encnvm/run-manifest/v2"}`)); err == nil {
		t.Fatal("decoded a manifest as a perf report")
	}
	if _, err := DecodeReport(strings.NewReader("not json")); err == nil {
		t.Fatal("decoded garbage")
	}
}

func TestSessionWritesSidecarAndProfiles(t *testing.T) {
	dir := t.TempDir()
	o := &Options{
		CPUProfile: filepath.Join(dir, "cpu.pprof"),
		MemProfile: filepath.Join(dir, "mem.pprof"),
		PerfOut:    filepath.Join(dir, "perf.json"),
	}
	s, err := o.Begin("testtool", []string{"-x"})
	if err != nil {
		t.Fatal(err)
	}
	if s == nil {
		t.Fatal("session nil with collectors enabled")
	}
	Begin("replay").End() // lands on the session's active profiler
	s.SetWorkers(2)
	sink := s.RunnerSink(nil)
	sink(runner.Progress{Label: "cell-a", Wall: 5 * time.Millisecond})
	sink(runner.Progress{Label: "cell-b", Wall: 9 * time.Millisecond, Err: errors.New("boom")})
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	if active.Load() != nil {
		t.Error("active profiler not cleared by End")
	}
	for _, p := range []string{o.CPUProfile, o.MemProfile} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
	f, err := os.Open(o.PerfOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := DecodeReport(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "testtool" || rep.WallMS <= 0 {
		t.Errorf("report header = %+v", rep)
	}
	var sawReplay bool
	for _, ph := range rep.Phases {
		if ph.Name == "replay" && ph.Count == 1 {
			sawReplay = true
		}
	}
	if !sawReplay {
		t.Errorf("replay phase missing: %+v", rep.Phases)
	}
	r := rep.Runner
	if r == nil || r.Cells != 2 || r.OK != 1 || r.Failed != 1 || r.Workers != 2 {
		t.Errorf("runner stats = %+v", r)
	}
	if r.Straggler != "cell-b" || r.StragglerWallMS < 9 {
		t.Errorf("straggler = %q (%v ms)", r.Straggler, r.StragglerWallMS)
	}
}

// TestRunnerSinkUnderParallelMap drives the repo's one nested lock
// path: runner holds its doneMu around OnDone, and RunnerSink takes
// Session.mu inside it, while the cells themselves take Profiler.mu
// through perf.Begin regions. Run under -race, it checks the nesting
// neither races nor deadlocks, and that the report counts every cell.
func TestRunnerSinkUnderParallelMap(t *testing.T) {
	const cells, workers = 64, 4
	o := &Options{PerfOut: filepath.Join(t.TempDir(), "perf.json")}
	s, err := o.Begin("testtool", nil)
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(workers)
	jobs := make([]int, cells)
	rs := runner.Map(context.Background(), jobs,
		func(_ context.Context, _ int) (struct{}, error) {
			defer Begin("cell").End()
			return struct{}{}, nil
		},
		runner.Options{Workers: workers, OnDone: s.RunnerSink(nil)})
	for _, r := range rs {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(o.PerfOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := DecodeReport(f)
	if err != nil {
		t.Fatal(err)
	}
	if r := rep.Runner; r == nil || r.Cells != cells || r.OK != cells || r.Failed != 0 || r.Workers != workers {
		t.Errorf("runner stats = %+v, want %d OK cells at %d workers", rep.Runner, cells, workers)
	}
	var regions uint64
	for _, ph := range rep.Phases {
		if ph.Name == "cell" {
			regions = ph.Count
		}
	}
	if regions != cells {
		t.Errorf("cell regions = %d, want %d: %+v", regions, cells, rep.Phases)
	}
}

func TestNilSessionNoOps(t *testing.T) {
	var o *Options
	if o.Enabled() {
		t.Error("nil options enabled")
	}
	s, err := (&Options{}).Begin("tool", nil)
	if err != nil || s != nil {
		t.Fatalf("empty options Begin = (%v, %v), want (nil, nil)", s, err)
	}
	if err := s.End(); err != nil {
		t.Errorf("nil session End = %v", err)
	}
	if s.Profiler() != nil {
		t.Error("nil session has a profiler")
	}
	s.SetWorkers(4) // must not panic
	called := 0
	next := func(runner.Progress) { called++ }
	sink := s.RunnerSink(next)
	sink(runner.Progress{})
	if called != 1 {
		t.Errorf("nil session sink did not pass through (called=%d)", called)
	}
	if s.RunnerSink(nil) != nil {
		t.Error("nil session with nil next should stay nil")
	}
}

func TestRegisterFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := RegisterFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", "a", "-memprofile", "b", "-perf-out", "c"}); err != nil {
		t.Fatal(err)
	}
	if o.CPUProfile != "a" || o.MemProfile != "b" || o.PerfOut != "c" {
		t.Errorf("parsed options = %+v", o)
	}
	if !o.Enabled() {
		t.Error("options with all three set not enabled")
	}
}

func TestPrintVersion(t *testing.T) {
	var buf bytes.Buffer
	PrintVersion(&buf, "nvmsim")
	line := buf.String()
	if !strings.HasPrefix(line, "nvmsim ") || !strings.Contains(line, "go1") {
		t.Errorf("version line = %q", line)
	}
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Errorf("version output should be exactly one line: %q", line)
	}
}
