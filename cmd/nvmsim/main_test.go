package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"encnvm/internal/clitest"
)

// The statistics dump, a custom DRAM machine's run and the unknown-name
// errors read as recorded, run after run.
func TestGolden(t *testing.T) {
	clitest.Golden(t, run, "stats.golden", "-design", "sca", "-workload", "btree", "-items", "2048", "-ops", "4", "-stats")
	clitest.Golden(t, run, "dram.golden", "-spec", "../../specs/sca-dram.json", "-workload", "btree", "-items", "128", "-ops", "64")
	clitest.Golden(t, run, "unknown-design.golden", "-design", "nosuch")
	clitest.Golden(t, run, "unknown-backend.golden", "-spec", filepath.Join("testdata", "bad-backend.json"))
	clitest.Golden(t, run, "help.golden", "-h")
}

// mustRun runs nvmsim, failing the test on a nonzero exit.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	out, code := clitest.Run(run, args...)
	if code != 0 {
		t.Fatalf("nvmsim %v:\n%s", args, out)
	}
	return out
}

// sameFile fails the test unless the two files hold the same bytes.
func sameFile(t *testing.T, a, b string) {
	t.Helper()
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Errorf("%s and %s differ", filepath.Base(a), filepath.Base(b))
	}
}

// Replaying a recorded trace file yields the manifest of the run that
// recorded it.
func TestRecordReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, w := range []string{"arrayswap", "queue", "hashtable", "btree", "rbtree"} {
		bin := filepath.Join(dir, w+".bin")
		recorded, replayed := filepath.Join(dir, w+".recorded.json"), filepath.Join(dir, w+".replayed.json")
		mustRun(t, "-design", "sca", "-workload", w, "-items", "128", "-ops", "64", "-record-trace", bin, "-manifest-out", recorded)
		mustRun(t, "-design", "sca", "-workload", w, "-items", "128", "-ops", "64", "-replay-trace", bin, "-manifest-out", replayed)
		sameFile(t, recorded, replayed)
	}
}

// A replay labelled with a workload other than the recorded one fails
// verification, whether the label is the default or given.
func TestReplayWrongWorkloadFailsVerify(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "queue.bin")
	mustRun(t, "-workload", "queue", "-items", "128", "-ops", "16", "-record-trace", bin)
	for _, label := range []string{"btree", "hashtable"} {
		args := []string{"-replay-trace", bin}
		if label != "btree" {
			args = append(args, "-workload", label)
		}
		out, code := clitest.Run(run, args...)
		if want := "VERIFICATION FAILED: core 0: no published " + label + " structure in the final image"; code != 1 || !strings.Contains(out, want) {
			t.Errorf("nvmsim %v: exit %d, want 1 with %q:\n%s", args, code, want, out)
		}
	}
	mustRun(t, "-replay-trace", bin, "-workload", "queue")
}

// -dump-spec output is a fixed point of -spec.
func TestDumpSpecRoundTrip(t *testing.T) {
	osiris := filepath.Join(t.TempDir(), "osiris.json")
	dump := mustRun(t, "-design", "osiris", "-dump-spec")
	if err := os.WriteFile(osiris, []byte(dump), 0o644); err != nil {
		t.Fatal(err)
	}
	if again := mustRun(t, "-spec", osiris, "-dump-spec"); again != dump {
		t.Errorf("-spec %s -dump-spec differs from -design osiris -dump-spec:\n%s\nwant:\n%s", osiris, again, dump)
	}
}

// A dumped builtin spec runs byte-identically to the design it was
// dumped from.
func TestBuiltinSpecMatchesDesign(t *testing.T) {
	dir := t.TempDir()
	sca := filepath.Join(dir, "sca.json")
	if err := os.WriteFile(sca, []byte(mustRun(t, "-design", "sca", "-dump-spec")), 0o644); err != nil {
		t.Fatal(err)
	}
	byDesign, bySpec := filepath.Join(dir, "by_design.json"), filepath.Join(dir, "by_spec.json")
	mustRun(t, "-design", "sca", "-workload", "btree", "-items", "128", "-ops", "64", "-manifest-out", byDesign)
	mustRun(t, "-spec", sca, "-workload", "btree", "-items", "128", "-ops", "64", "-manifest-out", bySpec)
	sameFile(t, byDesign, bySpec)
}
