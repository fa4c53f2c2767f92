// Osiris demonstrates the follow-on direction this paper opened: instead
// of asking software to enforce counter-atomicity (SCA's primitives), the
// memory controller persists a small plaintext checksum (modeling spare
// ECC bits) with every line and bounds counter staleness with a stop-loss
// write rule. After a crash, recovery searches the bounded window of
// candidate counters until the checksum matches.
//
// The demo runs the SAME legacy software (no counter_cache_writeback, no
// CounterAtomic — pre-paper code) on two machines:
//
//	Ideal  — counter-mode encryption, no counter-atomicity: crashes lose
//	         published structures (the paper's §2.2 failure).
//	Osiris — identical software, zero annotations: every crash point
//	         recovers, at the cost of candidate decryptions at boot.
package main

import (
	"fmt"
	"log"

	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/workloads"
)

func sweep(design string) (failures, points, trials, lines int) {
	spec, err := machine.ByName(design)
	if err != nil {
		log.Fatal(err)
	}
	p := workloads.Params{Seed: 11, Items: 96, Ops: 32, Legacy: true}
	for _, w := range workloads.All() {
		run, err := crash.RunCampaign(spec, w, p, crash.CampaignOptions{GridPoints: 16})
		if err != nil {
			log.Fatal(err)
		}
		rep := run.Report
		failures += len(rep.Failures())
		points += len(rep.Results)
		for _, r := range rep.Results {
			trials += r.Osiris.Trials
			lines += r.Osiris.Lines
		}
	}
	return
}

func main() {
	fmt.Println("legacy persistency software (pre-paper, no SCA primitives) under crash injection:")

	f, p, _, _ := sweep("ideal")
	fmt.Printf("  counter-mode NVMM without counter-atomicity: %3d/%3d crash points inconsistent\n", f, p)

	f2, p2, trials, lines := sweep("osiris")
	fmt.Printf("  Osiris-style ECC counter recovery:           %3d/%3d crash points inconsistent\n", f2, p2)
	if lines > 0 {
		fmt.Printf("  Osiris recovery cost: %.2f candidate decryptions per NVM line\n",
			float64(trials)/float64(lines))
	}

	if f == 0 {
		log.Fatal("expected the unprotected design to fail somewhere")
	}
	if f2 != 0 {
		log.Fatal("Osiris should recover every crash point")
	}
	fmt.Println("\nsame software, zero annotations — the hardware recovered the counters.")
}
