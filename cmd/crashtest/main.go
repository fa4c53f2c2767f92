// Command crashtest sweeps power-failure injections across a workload's
// execution and reports whether recovery restores a consistent state —
// the paper's crash-consistency claims, checked functionally.
//
// Usage:
//
//	crashtest [-design sca] [-workload all] [-points 32] [-legacy] [-cores 1] [-j N]
//	crashtest -spec machine.json [-workload all] ...
//	crashtest -campaign [-exhaustive] [-validate-classes K] [-checkpoint f.jsonl] [-resume]
//	crashtest -schedule counterexample.json
//
// Crash points are independent injections (each builds its own engine
// over the shared read-only traces), so sweeps fan out over -j workers
// (default GOMAXPROCS); the report is identical for every -j.
//
// With -campaign the sweep covers the per-op crash-point space (every
// gap between retired ops) instead of the evenly-spaced grid, pruned by
// the static crash-equivalence partition unless -exhaustive: only one
// representative per epoch-refined class is simulated and its verdict
// attributed to the whole class. -validate-classes K re-simulates up to
// K non-representative members per class and fails on divergence.
// -checkpoint streams per-class verdicts to a JSONL file as they
// complete; a killed campaign restarts from it with -resume instead of
// re-simulating. -campaign-out writes the schema-tagged JSON campaign
// report.
//
// With -legacy the workload uses pre-paper persistency primitives (no
// counter_cache_writeback, no CounterAtomic), reproducing the §2.2
// motivating failure on any encrypted design.
//
// With -schedule, a counterexample file written by `persistcheck
// -verify` (or the verifier's cross-validation suite) is replayed
// functionally: the workload trace is rebuilt deterministically from the
// recorded parameters, the optional catalog mutant applied, the exact
// crash-point image constructed, and recovery plus validation run.
//
// Exit status, in every mode: 0 every crash point recovered
// consistently (for -schedule: the predicted failure reproduced), 1
// violations (for -schedule: the failure did not reproduce), 2 usage or
// I/O error, 3 campaign halted by -halt-after (checkpoint intact).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"encnvm/internal/check"
	"encnvm/internal/check/verify"
	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/perf"
	"encnvm/internal/persist"
	"encnvm/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code lifted out for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crashtest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	design := fs.String("design", "sca", "registered machine: "+strings.Join(machine.Names(), "|"))
	specPath := fs.String("spec", "", "load a declarative machine spec from this JSON file (overrides -design/-cores)")
	workload := fs.String("workload", "all", "workload or 'all': "+strings.Join(workloads.ExtendedNames(), "|"))
	points := fs.Int("points", 32, "crash points per sweep")
	legacy := fs.Bool("legacy", false, "use pre-paper (legacy) persistency primitives")
	cores := fs.Int("cores", 1, "number of cores")
	items := fs.Int("items", 128, "initial structure population")
	ops := fs.Int("ops", 48, "operations per core")
	seed := fs.Int64("seed", 42, "workload RNG seed")
	jobs := fs.Int("j", 0, "concurrent crash-point injections; <= 0 means GOMAXPROCS")
	campaign := fs.Bool("campaign", false, "sweep the per-op crash-point space (class-pruned; see -exhaustive)")
	exhaustive := fs.Bool("exhaustive", false, "campaign: simulate every gap instead of class representatives")
	validateClasses := fs.Int("validate-classes", 0, "campaign: re-simulate up to K members per class, fail on divergence")
	validateSeed := fs.Int64("validate-seed", 1, "campaign: member-sampling seed")
	checkpoint := fs.String("checkpoint", "", "campaign: stream per-class verdicts to this JSONL file")
	checkpointEvery := fs.Int("checkpoint-every", 1, "campaign: flush the checkpoint after this many classes")
	resume := fs.Bool("resume", false, "campaign: resume from -checkpoint, skipping completed classes")
	campaignOut := fs.String("campaign-out", "", "campaign: write the JSON campaign report here ('-' for stdout)")
	haltAfter := fs.Int("halt-after", 0, "campaign: halt after N newly simulated classes (exit 3; kill/resume testing)")
	schedule := fs.String("schedule", "", "replay a verifier counterexample file and exit")
	version := fs.Bool("version", false, "print build/version information and exit")
	perfOpts := perf.RegisterFlags(fs)
	fs.Usage = func() {
		fmt.Fprintf(stderr, `Usage:
  crashtest [-design sca] [-workload all] [-points 32] [-legacy] [-cores 1] [-j N]
  crashtest -spec machine.json [-workload all] ...
  crashtest -campaign [-exhaustive] [-validate-classes K] [-checkpoint f.jsonl] [-resume]
  crashtest -schedule counterexample.json

Exit status (every mode):
  0  every crash point recovered consistently (-schedule: predicted failure reproduced)
  1  violations found (-schedule: failure did not reproduce)
  2  usage or I/O error
  3  campaign halted by -halt-after (checkpoint intact)

Flags:
`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *version {
		perf.PrintVersion(stdout, "crashtest")
		return 0
	}
	if *schedule != "" {
		return replaySchedule(stdout, stderr, *schedule)
	}
	session, err := perfOpts.Begin("crashtest", args)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	spec, err := machine.LoadSpec(*specPath, *design, *cores)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var targets []workloads.Workload
	if *workload == "all" {
		targets = workloads.Extended()
	} else {
		w, err := workloads.ByName(*workload)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		targets = []workloads.Workload{w}
	}

	if !*campaign && (*exhaustive || *validateClasses > 0 || *checkpoint != "" ||
		*resume || *campaignOut != "" || *haltAfter > 0) {
		fmt.Fprintln(stderr, "crashtest: campaign flags need -campaign")
		return 2
	}
	if !*campaign && *points < 1 {
		fmt.Fprintln(stderr, "crashtest: -points must be at least 1")
		return 2
	}
	if len(targets) > 1 && (*checkpoint != "" || *campaignOut != "") {
		fmt.Fprintln(stderr, "crashtest: -checkpoint/-campaign-out cover one campaign; pick a single -workload")
		return 2
	}

	p := workloads.Params{Seed: *seed, Items: *items, Ops: *ops, Legacy: *legacy}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *jobs > 0 {
		session.SetWorkers(*jobs)
	} else {
		session.SetWorkers(runtime.GOMAXPROCS(0))
	}
	anyFail := false
	for _, w := range targets {
		copts := crash.CampaignOptions{Workers: *jobs, OnDone: session.RunnerSink(nil)}
		if *campaign {
			copts.Pruned = !*exhaustive
			copts.ValidateMembers = *validateClasses
			copts.ValidateSeed = *validateSeed
			copts.CheckpointPath = *checkpoint
			copts.CheckpointEvery = *checkpointEvery
			copts.Resume = *resume
			copts.HaltAfter = *haltAfter
		} else {
			copts.GridPoints = *points
		}
		start := time.Now()
		res, err := crash.RunCampaign(spec, w, p, copts)
		if errors.Is(err, crash.ErrCampaignHalted) {
			fmt.Fprintln(stderr, err)
			session.End()
			return 3
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		rep := res.Report
		if *campaign {
			res.Campaign.WallMS = time.Since(start).Milliseconds()
			fmt.Fprintf(stdout, "%v  classes: %d, cells: %d, simulated: %d, pruned: %d (%.1f%%)\n",
				rep, rep.Classes, rep.Cells, rep.Simulated, rep.Pruned, 100*rep.PrunedFraction)
			if err := writeCampaignReport(stdout, *campaignOut, &res.Campaign); err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
		} else {
			fmt.Fprintln(stdout, rep)
		}
		for _, f := range rep.Failures() {
			anyFail = true
			fmt.Fprintf(stdout, "  crash at %10.1f ns: %s (lost counter lines: %d)\n",
				f.CrashAt.Nanoseconds(), f.Error, f.LostCounterLines)
		}
	}
	if err := session.End(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if anyFail {
		return 1
	}
	fmt.Fprintln(stdout, "every crash point recovered consistently")
	return 0
}

// writeCampaignReport emits the schema-tagged campaign report to the
// given path ("-" for stdout, "" for nowhere).
func writeCampaignReport(stdout io.Writer, path string, camp *crash.CampaignReport) error {
	if path == "" {
		return nil
	}
	out := stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(camp)
}

// replaySchedule rebuilds the trace a counterexample file describes and
// replays its crash schedule, returning the process exit code.
func replaySchedule(stdout, stderr io.Writer, path string) int {
	f, err := verify.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "crashtest: %v\n", err)
		return 2
	}
	w, err := workloads.ByName(f.Workload)
	if err != nil {
		fmt.Fprintf(stderr, "crashtest: %v\n", err)
		return 2
	}
	mode := persist.Undo
	if f.TxMode == "redo" {
		mode = persist.Redo
	} else if f.TxMode != "" && f.TxMode != "undo" {
		fmt.Fprintf(stderr, "crashtest: unknown tx mode %q\n", f.TxMode)
		return 2
	}
	cores := f.Cores
	if cores == 0 {
		cores = 1
	}
	if f.Schedule.Core < 0 || f.Schedule.Core >= cores {
		fmt.Fprintf(stderr, "crashtest: schedule core %d out of range (%d cores)\n",
			f.Schedule.Core, cores)
		return 2
	}
	p := workloads.Params{
		Seed: f.Seed, Items: f.Items, Ops: f.Ops, OpsPerTx: f.OpsPerTx,
		Legacy: f.Legacy, TxMode: mode,
	}
	if err := p.Validate(); err != nil {
		fmt.Fprintf(stderr, "crashtest: %s: %v\n", path, err)
		return 2
	}
	tr := crash.BuildTraces(w, p, cores)[f.Schedule.Core]
	if f.Mutant != "" {
		m, err := check.MutantByName(tr, f.Mutant)
		if err != nil {
			fmt.Fprintf(stderr, "crashtest: %v\n", err)
			return 2
		}
		tr = m.Trace
	}
	arena := persist.ArenaFor(f.Schedule.Core, crash.DefaultArena)
	out, err := crash.ReplaySchedule(w, tr, arena, &f.Schedule)
	if err != nil {
		fmt.Fprintf(stderr, "crashtest: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s %s/%s: schedule %s\n", path, f.Workload, f.TxMode, &f.Schedule)
	fmt.Fprintln(stdout, out)
	if !out.Reproduced {
		return 1
	}
	return 0
}
