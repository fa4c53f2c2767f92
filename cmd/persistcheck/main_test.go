package main

import (
	"testing"

	"encnvm/internal/clitest"
)

// The verifier's per-workload verdicts and the seeded fixture's findings
// read as recorded, in one order, run after run.
func TestGolden(t *testing.T) {
	clitest.Golden(t, run, "verify.golden", "-verify")
	clitest.Golden(t, run, "verify-dram.golden", "-verify", "-spec", "../../specs/sca-dram.json", "-items", "32", "-ops", "12")
	clitest.Golden(t, run, "badworkload.golden", "../../internal/check/analyzers/testdata/src/badworkload")
	clitest.Golden(t, run, "help.golden", "-h")
}

// An analyzer name outside the catalog is a usage error.
func TestUnknownAnalyzer(t *testing.T) {
	out, code := clitest.Run(run, "-analyzers", "maprange", ".")
	if want := "--- stderr ---\npersistcheck: analyzers: unknown analyzer \"maprange\"\n--- exit 2 ---\n"; out != want {
		t.Errorf("-analyzers maprange: exit %d\n%s\nwant:\n%s", code, out, want)
	}
}
