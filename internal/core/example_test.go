package core_test

import (
	"fmt"

	"encnvm/internal/core"
	"encnvm/internal/machine"
	"encnvm/internal/workloads"
)

// ExampleRunWorkload runs a persistent B-tree under selective
// counter-atomicity and verifies the final encrypted NVM image end to end.
func ExampleRunWorkload() {
	spec, err := machine.ByName("sca")
	if err != nil {
		panic(err)
	}
	res, err := core.RunWorkload(core.Options{
		Spec:     spec,
		Workload: "btree",
		Params:   workloads.Params{Seed: 1, Items: 64, Ops: 16},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("transactions:", res.Transactions)
	fmt.Println("verified:", core.VerifyResult(res) == nil)
	// Output:
	// transactions: 16
	// verified: true
}
