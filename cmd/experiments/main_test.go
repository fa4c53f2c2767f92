package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"encnvm/internal/clitest"
	"encnvm/internal/exp"
	"encnvm/internal/perf"
	"encnvm/internal/probe"
)

// Stdout must carry only figure rows: running one figure through the CLI
// produces byte-for-byte the library's output, with the wall-clock
// timing line on stderr. This is the regression test for the bug where
// `[fig12 done in ...]` landed on stdout and broke golden-file diffs.
func TestStdoutCarriesOnlyFigureRows(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-figure", "fig12", "-scale", "quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}

	var want bytes.Buffer
	if _, err := exp.Fig12(exp.Quick, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Errorf("CLI stdout differs from exp.Fig12 output:\n--- cli ---\n%s--- lib ---\n%s",
			stdout.String(), want.String())
	}
	if strings.Contains(stdout.String(), "done in") {
		t.Error("wall-clock timing line leaked onto stdout")
	}
	if !strings.Contains(stderr.String(), "[fig12 done in ") {
		t.Errorf("timing line missing from stderr:\n%s", stderr.String())
	}
}

func TestGolden(t *testing.T) {
	clitest.Golden(t, run, "help.golden", "-h")
}

// The full figure set must match testdata/golden_quick.txt byte for
// byte whatever -j is — the determinism contract the parallel fan-out
// promises.
func TestOutputByteIdenticalAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick-scale figure set twice")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []string{"1", "8"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-figure", "all", "-scale", "quick", "-j", j}, &stdout, &stderr); code != 0 {
			t.Fatalf("-j %s: exit %d, stderr:\n%s", j, code, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), golden) {
			t.Errorf("-j %s stdout differs from testdata/golden_quick.txt", j)
		}
	}
}

// A bad -figure must fail fast with exit 2 and the full list of valid
// names — before any simulation runs — and the list must include the
// analyses (lifetime, osiris) the doc comment used to omit.
func TestUnknownFigureRejectedUpfront(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-figure", "fig99"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty on usage error:\n%s", stdout.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, `unknown figure "fig99"`) {
		t.Errorf("error does not name the bad figure: %s", msg)
	}
	for _, name := range []string{"all", "table1", "table2", "fig4", "fig8", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "lifetime", "osiris"} {
		if !strings.Contains(msg, name) {
			t.Errorf("error does not list valid name %q: %s", name, msg)
		}
	}
}

func TestUnknownScaleRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "huge", "-figure", "table1"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty on usage error:\n%s", stdout.String())
	}
}

// The -progress sink must receive one JSONL record per cell without
// perturbing stdout.
func TestProgressSink(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/progress.jsonl"
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-figure", "fig12", "-scale", "quick", "-progress", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var want bytes.Buffer
	if _, err := exp.Fig12(exp.Quick, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Error("-progress changed stdout")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"cell":"fig12/`)) || !bytes.Contains(data, []byte(`"wall_ms"`)) {
		t.Errorf("progress file missing cell records:\n%.400s", data)
	}
}

// -progress streams must end with the terminal summary record so a
// consumer can tell a complete stream from a truncated one.
func TestProgressSummaryRecord(t *testing.T) {
	path := t.TempDir() + "/progress.jsonl"
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-figure", "fig12", "-scale", "quick", "-progress", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var last probe.ProgressRecord
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("terminal record: %v\n%s", err, lines[len(lines)-1])
	}
	if !last.Summary {
		t.Fatalf("terminal record is not a summary: %s", lines[len(lines)-1])
	}
	if last.Cells != len(lines)-1 || last.OK != last.Cells || last.Failed != 0 {
		t.Errorf("summary = %+v over %d cell records", last, len(lines)-1)
	}
}

// The host-performance sidecar must never perturb the deterministic
// outputs: stdout with -perf-out (and profiles) enabled is byte-identical
// to a plain run, and the sidecar itself decodes under its schema.
func TestPerfSidecarDoesNotPerturbStdout(t *testing.T) {
	var plain, plainErr bytes.Buffer
	if code := run([]string{"-figure", "fig12", "-scale", "quick"}, &plain, &plainErr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, plainErr.String())
	}

	dir := t.TempDir()
	perfOut := dir + "/perf.json"
	cpu := dir + "/cpu.pprof"
	mem := dir + "/mem.pprof"
	var profiled, profErr bytes.Buffer
	args := []string{"-figure", "fig12", "-scale", "quick",
		"-perf-out", perfOut, "-cpuprofile", cpu, "-memprofile", mem}
	if code := run(args, &profiled, &profErr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, profErr.String())
	}
	if !bytes.Equal(plain.Bytes(), profiled.Bytes()) {
		t.Error("-perf-out/-cpuprofile/-memprofile changed stdout")
	}

	f, err := os.Open(perfOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := perf.DecodeReport(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "experiments" || rep.WallMS <= 0 {
		t.Errorf("report header = %+v", rep)
	}
	phases := make(map[string]bool)
	for _, ph := range rep.Phases {
		phases[ph.Name] = true
	}
	for _, want := range []string{"figure/fig12", "trace-build", "replay"} {
		if !phases[want] {
			t.Errorf("phase %q missing from report (got %v)", want, rep.Phases)
		}
	}
	if rep.Runner == nil || rep.Runner.Cells == 0 || rep.Runner.Straggler == "" {
		t.Errorf("runner fleet stats missing: %+v", rep.Runner)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

func TestVersionFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.HasPrefix(stdout.String(), "experiments ") {
		t.Errorf("version output = %q", stdout.String())
	}
}
