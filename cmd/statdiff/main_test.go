package main

import (
	"os"
	"path/filepath"
	"testing"

	"encnvm/internal/clitest"
	"encnvm/internal/core"
	"encnvm/internal/machine"
	"encnvm/internal/workloads"
)

// writeManifest runs btree on the named design as `nvmsim -items 128
// -ops 64 -manifest-out` does and writes the manifest into dir.
func writeManifest(t *testing.T, dir, design string) string {
	t.Helper()
	spec, err := machine.ByName(design)
	if err != nil {
		t.Fatal(err)
	}
	p := workloads.Params{Seed: 42, Items: 128, Ops: 64, OpsPerTx: 1}
	res, err := core.RunWorkload(core.Options{Spec: spec, Workload: "btree", Params: p})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, design+".json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := core.BuildManifest(res, p.WithDefaults()).Encode(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// An SCA/FCA diff prints every results, counter, time and latency row
// in one order, run after run.
func TestGolden(t *testing.T) {
	dir := t.TempDir()
	sca, fca := writeManifest(t, dir, "sca"), writeManifest(t, dir, "fca")
	clitest.Golden(t, run, "all.golden", "-all", sca, fca)
	clitest.Golden(t, run, "changed.golden", sca, fca)
	clitest.Golden(t, run, "help.golden", "-h")
}

// A manifest diffed against itself reports no differences.
func TestNoDifferences(t *testing.T) {
	sca := writeManifest(t, t.TempDir(), "sca")
	out, code := clitest.Run(run, sca, sca)
	if code != 0 || out != "old: SCA / btree / 1 cores (seed 42)\nnew: SCA / btree / 1 cores (seed 42)\n\n--- results ---\n\n--- counters ---\n\n--- times (ps) ---\n\n--- latencies (ps) ---\n\nno differences\n" {
		t.Errorf("statdiff of a manifest with itself:\n%s", out)
	}
}

// A missing manifest exits 1; a wrong argument count exits 2.
func TestExitCodes(t *testing.T) {
	if _, code := clitest.Run(run, "nosuch.json", "nosuch.json"); code != 1 {
		t.Errorf("missing manifest: exit %d, want 1", code)
	}
	if _, code := clitest.Run(run, "only-one.json"); code != 2 {
		t.Errorf("one argument: exit %d, want 2", code)
	}
}
