package main

import (
	"path/filepath"
	"testing"

	"encnvm/internal/clitest"
	"encnvm/internal/crash"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// The op histogram and lint report must read as recorded, run after run.
func TestGolden(t *testing.T) {
	clitest.Golden(t, run, "hashtable.golden", "-workload", "hashtable", "-items", "16", "-ops", "4")
	clitest.Golden(t, run, "hashtable-check.golden", "-workload", "hashtable", "-items", "16", "-ops", "4", "-check")
	clitest.Golden(t, run, "legacy-check.golden", "-workload", "queue", "-items", "16", "-ops", "4", "-legacy", "-check")
	clitest.Golden(t, run, "help.golden", "-h")
}

// Every workload's trace lints clean in both transaction modes.
func TestCheckCleanAllWorkloads(t *testing.T) {
	for _, w := range workloads.ExtendedNames() {
		for _, mode := range []string{"undo", "redo"} {
			args := []string{"-workload", w, "-mode", mode, "-items", "128", "-ops", "64", "-check"}
			if out, code := clitest.Run(run, args...); code != 0 {
				t.Errorf("traceinfo %v:\n%s", args, out)
			}
		}
	}
}

// A recorded multi-core file decodes and lints clean core by core.
func TestCheckRecordedFile(t *testing.T) {
	p := workloads.Params{Items: 128, Ops: 64}.WithDefaults()
	for _, w := range workloads.All() {
		path := filepath.Join(t.TempDir(), w.Name()+".bin")
		if err := trace.WriteTracesFile(path, crash.BuildTraces(w, p, 2)); err != nil {
			t.Fatal(err)
		}
		if out, code := clitest.Run(run, "-in", path, "-check"); code != 0 {
			t.Errorf("traceinfo -in %s -check:\n%s", path, out)
		}
	}
}
