package main

import (
	"testing"

	"encnvm/internal/clitest"
)

// Sweep reports read as recorded, in workload and crash-point order, run
// after run and whatever -j is.
func TestGolden(t *testing.T) {
	clitest.Golden(t, run, "all.golden", "-workload", "all", "-items", "16", "-ops", "8", "-points", "4", "-j", "4")
	for _, j := range []string{"1", "4"} {
		clitest.Golden(t, run, "legacy.golden", "-design", "ideal", "-legacy", "-workload", "queue", "-items", "32", "-ops", "16", "-points", "16", "-j", j)
	}
	clitest.Golden(t, run, "dram.golden", "-spec", "../../specs/sca-dram.json", "-workload", "queue", "-points", "16", "-j", "4")
	clitest.Golden(t, run, "unknown-design.golden", "-design", "nosuch")
	clitest.Golden(t, run, "help.golden", "-h")
}
