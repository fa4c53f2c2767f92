package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"encnvm/internal/clitest"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: encnvm
BenchmarkSimEngine-8   	135266788	         8.830 ns/op	       0 B/op	       0 allocs/op
BenchmarkReplayPerDesign/SCA-8         	       196	   6084044 ns/op	 2952207 B/op	   25812 allocs/op
BenchmarkAblationCounterQueueDepth/d4-8 	     100	   1234567 ns/op	   900000 sim-ns	  500000 B/op	    7000 allocs/op
PASS
ok  	encnvm	2.345s
`

func TestParseBench(t *testing.T) {
	benches, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(benches), benches)
	}
	se, ok := benches["BenchmarkSimEngine"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if se.NsPerOp != 8.830 || se.Iterations != 135266788 || se.AllocsPerOp != 0 {
		t.Errorf("SimEngine = %+v", se)
	}
	rp := benches["BenchmarkReplayPerDesign/SCA"]
	if rp.NsPerOp != 6084044 || rp.BytesPerOp != 2952207 || rp.AllocsPerOp != 25812 {
		t.Errorf("ReplayPerDesign/SCA = %+v", rp)
	}
	ab := benches["BenchmarkAblationCounterQueueDepth/d4"]
	if ab.Metrics["sim-ns"] != 900000 {
		t.Errorf("custom metric sim-ns = %+v", ab.Metrics)
	}
}

func TestParseBenchRejectsEmpty(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Fatal("accepted output with no benchmarks")
	}
}

// writeBenchFile captures text into a BENCH.json at path via run().
func writeBenchFile(t *testing.T, path, text string) {
	t.Helper()
	src := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(src, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-parse", src, "-o", path}, &out, &errb); code != 0 {
		t.Fatalf("parse exited %d: %s", code, errb.String())
	}
}

func TestParseModeWritesSchemaTaggedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	writeBenchFile(t, path, sampleBench)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Schema != Schema {
		t.Errorf("schema = %q, want %q", f.Schema, Schema)
	}
	if f.Build == nil || f.Build.GoVersion == "" {
		t.Errorf("build provenance missing: %+v", f.Build)
	}
	if len(f.Benchmarks) != 3 {
		t.Errorf("benchmarks = %d, want 3", len(f.Benchmarks))
	}
}

func TestDiffExitContract(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	writeBenchFile(t, oldPath, sampleBench)

	regressed := strings.Replace(sampleBench, "8.830 ns/op", "15.000 ns/op", 1)
	improved := strings.Replace(sampleBench, "6084044 ns/op", "5000000 ns/op", 1)

	cases := []struct {
		name string
		text string
		args []string
		want int
	}{
		{"identical", sampleBench, nil, 0},
		{"improvement", improved, nil, 0},
		{"regression beyond 25%", regressed, nil, 1},
		{"regression with loose tolerance", regressed, []string{"-tol-ns", "0.8"}, 0},
		{"regression outside gate", regressed, []string{"-gate", "Replay"}, 0},
		{"regression inside gate", regressed, []string{"-gate", "SimEngine"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newPath := filepath.Join(t.TempDir(), "new.json")
			writeBenchFile(t, newPath, tc.text)
			var out, errb bytes.Buffer
			args := append(append([]string{}, tc.args...), oldPath, newPath)
			if code := run(args, &out, &errb); code != tc.want {
				t.Errorf("exit = %d, want %d\nstdout: %s\nstderr: %s", code, tc.want, out.String(), errb.String())
			}
		})
	}
}

func TestDiffMemGate(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeBenchFile(t, oldPath, sampleBench)
	writeBenchFile(t, newPath, strings.Replace(sampleBench, "25812 allocs/op", "40000 allocs/op", 1))
	var out, errb bytes.Buffer
	if code := run([]string{oldPath, newPath}, &out, &errb); code != 0 {
		t.Errorf("allocs regression gated by default (exit %d); mem gate should be opt-in", code)
	}
	out.Reset()
	if code := run([]string{"-tol-mem", "0.10", oldPath, newPath}, &out, &errb); code != 1 {
		t.Errorf("exit = %d with -tol-mem 0.10, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("regression not flagged in output:\n%s", out.String())
	}
}

// A baseline entry without ns_per_op leaves ns/op ungated while its
// allocation figures stay gated: the single CI gate step relies on this
// to gate timing only where the baseline records it.
func TestDiffAbsentBaselineValueUngated(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	writeBenchFile(t, oldPath, sampleBench)
	data, err := os.ReadFile(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	sca := f.Benchmarks["BenchmarkReplayPerDesign/SCA"]
	sca.NsPerOp = 0
	f.Benchmarks["BenchmarkReplayPerDesign/SCA"] = sca
	if data, err = json.Marshal(f); err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(data), "ns_per_op") != 2 {
		t.Fatalf("baseline keeps ns_per_op on %d entries, want 2: %s", strings.Count(string(data), "ns_per_op"), data)
	}
	if err := os.WriteFile(oldPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	slower := strings.Replace(sampleBench, "6084044 ns/op", "60840440 ns/op", 1)
	cases := []struct {
		name string
		text string
		want int
	}{
		{"10x slower, no baseline ns", slower, 0},
		{"20% more allocs", strings.Replace(slower, "25812 allocs/op", "30975 allocs/op", 1), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newPath := filepath.Join(t.TempDir(), "new.json")
			writeBenchFile(t, newPath, tc.text)
			var out, errb bytes.Buffer
			if code := run([]string{"-tol-ns", "0.25", "-tol-mem", "0.10", oldPath, newPath}, &out, &errb); code != tc.want {
				t.Errorf("exit = %d, want %d\nstdout: %s\nstderr: %s", code, tc.want, out.String(), errb.String())
			}
		})
	}
}

// TestDiffExplicitZeroBaselineGated: a baseline that records 0 B/op
// and 0 allocs/op, as BENCH_baseline.json does for BenchmarkEncryptLine,
// fails a head that allocates again. Absent fields stay ungated
// (TestDiffAbsentBaselineValueUngated).
func TestDiffExplicitZeroBaselineGated(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	base := `{"schema": "encnvm/bench/v1", "benchmarks": {"BenchmarkEncryptLine": ` +
		`{"iterations": 1545505, "ns_per_op": 238.7, "b_per_op": 0, "allocs_per_op": 0, "mb_per_s": 268.13}}}`
	if err := os.WriteFile(oldPath, []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, line string
		want       int
	}{
		{"allocating again", "BenchmarkEncryptLine-8 1000000 240.1 ns/op 268.0 MB/s 160 B/op 5 allocs/op", 1},
		{"still zero", "BenchmarkEncryptLine-8 1000000 240.1 ns/op 268.0 MB/s 0 B/op 0 allocs/op", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newPath := filepath.Join(t.TempDir(), "new.json")
			writeBenchFile(t, newPath, tc.line+"\n")
			var out, errb bytes.Buffer
			if code := run([]string{"-tol-mem", "0.10", "-gate", "BenchmarkEncryptLine", oldPath, newPath}, &out, &errb); code != tc.want {
				t.Errorf("exit = %d, want %d\nstdout: %s\nstderr: %s", code, tc.want, out.String(), errb.String())
			}
		})
	}
}

// A -v diff over several benchmarks and custom metrics prints its rows,
// regression marks and missing/added notes in one order, run after run.
func TestDiffGolden(t *testing.T) {
	clitest.Golden(t, run, "verbose.golden", "-v", filepath.Join("testdata", "old.json"), filepath.Join("testdata", "new.json"))
	clitest.Golden(t, run, "help.golden", "-h")
}

func TestDiffUsageAndParseErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"only-one.json"}, &out, &errb); code != 2 {
		t.Errorf("one arg: exit %d, want 2", code)
	}
	if code := run([]string{"a.json", "b.json"}, &out, &errb); code != 2 {
		t.Errorf("missing files: exit %d, want 2", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"wrong"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{bad, bad}, &out, &errb); code != 2 {
		t.Errorf("wrong schema: exit %d, want 2", code)
	}
}

func TestDiffReportsMissingAndAdded(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeBenchFile(t, oldPath, sampleBench)
	shrunk := strings.Replace(sampleBench, "BenchmarkSimEngine", "BenchmarkSomethingElse", 1)
	writeBenchFile(t, newPath, shrunk)
	var out, errb bytes.Buffer
	if code := run([]string{oldPath, newPath}, &out, &errb); code != 0 {
		t.Errorf("exit = %d, want 0 (membership changes warn, not fail)", code)
	}
	if !strings.Contains(errb.String(), "BenchmarkSimEngine") || !strings.Contains(errb.String(), "missing") {
		t.Errorf("missing benchmark not warned: %s", errb.String())
	}
	if !strings.Contains(errb.String(), "BenchmarkSomethingElse") {
		t.Errorf("added benchmark not noted: %s", errb.String())
	}
}

func TestVersionFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-version"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.HasPrefix(out.String(), "benchdiff ") {
		t.Errorf("version output = %q", out.String())
	}
}
