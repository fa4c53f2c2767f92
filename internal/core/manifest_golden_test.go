package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"encnvm/internal/machine"
	"encnvm/internal/workloads"
)

// manifestGolden holds one line per registry engine × paper workload ×
// {1, 2} cores: the SHA-256 prefix of the run's full manifest JSON
// (counters, time buckets, latency summaries, wear) and a few headline
// values, so a mismatch names the run and shows which way it moved.
var manifestGolden = filepath.Join("testdata", "manifest.golden")

// manifestParams keeps the 90 runs of the golden quick.
var manifestParams = workloads.Params{Seed: 1, Items: 128, Ops: 32, OpsPerTx: 1, ComputeCycles: 50}

// manifestLines renders the golden lines of every run.
func manifestLines(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, name := range machine.Names() {
		for _, w := range workloads.Names() {
			for _, cores := range []int{1, 2} {
				spec, err := machine.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				spec.Cores = cores
				res, err := RunWorkload(Options{Spec: spec, Workload: w, Params: manifestParams})
				if err != nil {
					t.Fatalf("%s %s cores=%d: %v", name, w, cores, err)
				}
				m := BuildManifest(res, manifestParams.WithDefaults())
				var buf bytes.Buffer
				if err := m.Encode(&buf); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				r := m.Results
				fmt.Fprintf(&b, "%s %s cores=%d sha256:%x runtime_ps=%d events=%d bytes_written=%d wear_lines=%d counters=%d\n",
					name, w, cores, sum[:8], r.RuntimePs, r.SimEvents, r.BytesWritten, r.WearLines, len(m.Counters))
			}
		}
	}
	return b.String()
}

// TestManifestGolden requires every run's manifest to hash as recorded,
// so a change in how the simulator stores its per-line state or its
// statistics cannot change one byte of what a run reports.
func TestManifestGolden(t *testing.T) {
	got := manifestLines(t)
	want, err := os.ReadFile(manifestGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("manifest differs from %s at line %d:\n got: %s\nwant: %s", manifestGolden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("manifests differ from %s: %d lines, want %d", manifestGolden, len(gl), len(wl))
}
