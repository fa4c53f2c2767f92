package crash_test

import (
	"fmt"

	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/workloads"
)

// ExampleRunCampaign injects power failures at seven instants spread
// evenly over a run and reports how many recovery attempts were
// inconsistent (zero under SCA).
func ExampleRunCampaign() {
	spec, err := machine.ByName("sca")
	if err != nil {
		panic(err)
	}
	p := workloads.Params{Seed: 2, Items: 32, Ops: 8}.WithDefaults()
	run, err := crash.RunCampaign(spec, &workloads.Queue{}, p, crash.CampaignOptions{GridPoints: 6})
	if err != nil {
		panic(err)
	}
	fmt.Println("inconsistent:", len(run.Report.Failures()))
	// Output:
	// inconsistent: 0
}
