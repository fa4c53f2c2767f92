package crash

import (
	"testing"

	"encnvm/internal/config"
	"encnvm/internal/machine"
	"encnvm/internal/persist"
	"encnvm/internal/sim"
	"encnvm/internal/workloads"
)

var smallParams = workloads.Params{Seed: 21, Items: 24, Ops: 12, OpsPerTx: 1, ComputeCycles: 50}

// specOf returns the built-in machine spec of a paper design.
func specOf(t *testing.T, d config.Design) *machine.Spec {
	t.Helper()
	spec, err := machine.SpecForDesign(d)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// gridSweep runs a grid campaign of n+1 crash points.
func gridSweep(spec *machine.Spec, w workloads.Workload, p workloads.Params, n int) (Report, error) {
	run, err := RunCampaign(spec, w, p, CampaignOptions{GridPoints: n})
	if err != nil {
		return Report{}, err
	}
	return run.Report, nil
}

func sweep(t *testing.T, d config.Design, w workloads.Workload, points int) Report {
	t.Helper()
	rep, err := gridSweep(specOf(t, d), w, smallParams, points)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != points+1 {
		t.Fatalf("results = %d, want %d", len(rep.Results), points+1)
	}
	return rep
}

// TestSCASurvivesEveryCrashPoint is the paper's central correctness claim:
// selective counter-atomicity keeps the encrypted NVM recoverable at every
// instant.
func TestSCASurvivesEveryCrashPoint(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			rep := sweep(t, config.SCA, w, 12)
			for _, f := range rep.Failures() {
				t.Errorf("crash at %v: %v (lost counters: %d)", f.CrashAt, f.Error, f.LostCounterLines)
			}
		})
	}
}

func TestFCASurvivesEveryCrashPoint(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			rep := sweep(t, config.FCA, w, 8)
			for _, f := range rep.Failures() {
				t.Errorf("crash at %v: %v", f.CrashAt, f.Error)
			}
		})
	}
}

func TestCoLocatedSurvivesEveryCrashPoint(t *testing.T) {
	for _, d := range []config.Design{config.CoLocated, config.CoLocatedCC} {
		for _, w := range []workloads.Workload{&workloads.ArraySwap{}, &workloads.Queue{}} {
			rep := sweep(t, d, w, 8)
			for _, f := range rep.Failures() {
				t.Errorf("%v/%s crash at %v: %v", d, w.Name(), f.CrashAt, f.Error)
			}
		}
	}
}

func TestNoEncryptionSurvives(t *testing.T) {
	// Without encryption there are no counters to desynchronize; the
	// undo log alone provides crash consistency.
	rep := sweep(t, config.NoEncryption, &workloads.ArraySwap{}, 8)
	for _, f := range rep.Failures() {
		t.Errorf("crash at %v: %v", f.CrashAt, f.Error)
	}
}

// TestLegacySoftwareFailsOnEncryptedNVMM shows the motivating
// inconsistency (§2.2, Fig. 3/4): crash-consistency software written for
// an unencrypted NVMM — no counter_cache_writeback, no CounterAtomic —
// loses dirty counters at a crash and the encrypted image stops being
// decryptable, regardless of its own undo logging.
func TestLegacySoftwareFailsOnEncryptedNVMM(t *testing.T) {
	legacy := smallParams
	legacy.Legacy = true
	legacy.Ops = 24
	failures := 0
	lostCounters := 0
	for _, w := range workloads.All() {
		rep, err := gridSweep(specOf(t, config.Ideal), w, legacy, 24)
		if err != nil {
			t.Fatal(err)
		}
		failures += len(rep.Failures())
		for _, r := range rep.Results {
			lostCounters += r.LostCounterLines
		}
	}
	if failures == 0 {
		t.Fatal("legacy software survived every crash point on encrypted NVMM; the counter-atomicity problem did not reproduce")
	}
	if lostCounters == 0 {
		t.Fatal("no dirty counter lines were ever lost; the failure mode is not the expected one")
	}
	t.Logf("legacy-on-encrypted: %d inconsistent crash points, %d lost counter lines (expected)", failures, lostCounters)
}

// TestLegacySoftwareSurvivesWithoutEncryption is the control: the same
// legacy traces are perfectly crash consistent when nothing is encrypted —
// the failure above is the encryption interplay, not a broken undo log.
func TestLegacySoftwareSurvivesWithoutEncryption(t *testing.T) {
	legacy := smallParams
	legacy.Legacy = true
	rep, err := gridSweep(specOf(t, config.NoEncryption), &workloads.ArraySwap{}, legacy, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures() {
		t.Errorf("crash at %v: %v", f.CrashAt, f.Error)
	}
}

func TestCrashAtEndIsConsistent(t *testing.T) {
	// The final result of every sweep crashes at the very end of the
	// run; with SCA it must be consistent and reflect all transactions.
	rep := sweep(t, config.SCA, &workloads.ArraySwap{}, 4)
	last := rep.Results[len(rep.Results)-1]
	if !last.Consistent() {
		t.Fatalf("crash at completion inconsistent: %v", last.Error)
	}
}

func TestCrashAtZeroIsConsistent(t *testing.T) {
	// Crashing before anything persisted must validate trivially (the
	// structure was never published).
	w := &workloads.ArraySwap{}
	traces := BuildTraces(w, smallParams, 1)
	res, err := inject(specOf(t, config.SCA), w, traces, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent() {
		t.Fatalf("crash at t=0: %v", res.Err)
	}
}

func TestMultiCoreCrashConsistency(t *testing.T) {
	spec := specOf(t, config.SCA)
	spec.Cores = 2
	rep, err := gridSweep(spec, &workloads.Queue{}, smallParams, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures() {
		t.Errorf("2-core crash at %v: %v", f.CrashAt, f.Error)
	}
}

func TestRecoveryRollsBackSomewhere(t *testing.T) {
	// Across a dense sweep, at least one SCA crash point must land
	// mid-transaction and exercise an actual undo-log rollback —
	// otherwise the sweep is not covering the interesting window.
	total := 0
	for _, w := range workloads.All() {
		rep := sweep(t, config.SCA, w, 16)
		for _, r := range rep.Results {
			total += r.RecoveredEntries
		}
	}
	if total == 0 {
		t.Fatal("no crash point ever required a rollback; sweep coverage is broken")
	}
}

func TestReportString(t *testing.T) {
	rep := sweep(t, config.SCA, &workloads.ArraySwap{}, 2)
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

// TestRedoLoggingSurvivesEveryCrashPoint shows the paper's §4.2 claim that
// the primitives are mechanism-agnostic: the same workloads built on
// redo-logging transactions are crash consistent under SCA everywhere.
func TestRedoLoggingSurvivesEveryCrashPoint(t *testing.T) {
	p := smallParams
	p.TxMode = persist.Redo
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			rep, err := gridSweep(specOf(t, config.SCA), w, p, 10)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range rep.Failures() {
				t.Errorf("crash at %v: %v", f.CrashAt, f.Error)
			}
		})
	}
}

// TestRedoRollsForwardSomewhere confirms the redo sweeps actually exercise
// roll-forward recovery.
func TestRedoRollsForwardSomewhere(t *testing.T) {
	p := smallParams
	p.TxMode = persist.Redo
	forward := 0
	spec := specOf(t, config.SCA)
	for _, w := range workloads.All() {
		traces := BuildTraces(w, p, 1)
		probe, _, err := probeRun(spec, traces)
		if err != nil {
			t.Fatal(err)
		}
		end := probe.RuntimeSoFar()
		for i := 1; i <= 16; i++ {
			res, err := inject(spec, w, traces, end*sim.Time(i)/16)
			if err != nil {
				t.Fatal(err)
			}
			forward += res.RecoveredEntries
		}
	}
	if forward == 0 {
		t.Fatal("no crash point ever exercised redo roll-forward")
	}
}

// TestOsirisMakesLegacySoftwareConsistent is the extension's headline:
// with ECC-assisted counter recovery plus the stop-loss write rule, even
// legacy persistency software (no ccwb, no CounterAtomic) is crash
// consistent on encrypted NVMM — the direction the follow-on work to this
// paper took.
func TestOsirisMakesLegacySoftwareConsistent(t *testing.T) {
	legacy := smallParams
	legacy.Legacy = true
	legacy.Ops = 24
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			rep, err := gridSweep(specOf(t, config.Osiris), w, legacy, 16)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range rep.Failures() {
				t.Errorf("crash at %v: %v (lost counters: %d)", f.CrashAt, f.Error, f.LostCounterLines)
			}
		})
	}
}

// TestOsirisSurvivesWithPaperPrimitives: the same hardware also runs the
// paper-primitive traces consistently (the primitives become no-ops).
func TestOsirisSurvivesWithPaperPrimitives(t *testing.T) {
	rep, err := gridSweep(specOf(t, config.Osiris), &workloads.BTree{}, smallParams, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures() {
		t.Errorf("crash at %v: %v", f.CrashAt, f.Error)
	}
}

// TestOsirisStopLossBoundsLag: with StopLoss = N, recovery must always
// find the counter within N candidates; shrink the window to 1 and it
// still must hold (every write forces a counter writeback).
func TestOsirisStopLossBoundsLag(t *testing.T) {
	spec := specOf(t, config.Osiris)
	spec.StopLoss = 1
	legacy := smallParams
	legacy.Legacy = true
	rep, err := gridSweep(spec, &workloads.ArraySwap{}, legacy, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures() {
		t.Errorf("StopLoss=1 crash at %v: %v", f.CrashAt, f.Error)
	}
}

// TestLinkedListCrashMatrix runs the log-free shadow-update workload (the
// paper's motivating structure) through the crash matrix: consistent under
// every counter-atomic design, broken in legacy mode on unprotected
// encryption.
func TestLinkedListCrashMatrix(t *testing.T) {
	w := &workloads.LinkedList{}
	for _, d := range []config.Design{config.NoEncryption, config.CoLocated,
		config.CoLocatedCC, config.FCA, config.SCA, config.Osiris} {
		rep, err := gridSweep(specOf(t, d), w, smallParams, 12)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range rep.Failures() {
			t.Errorf("%v: crash at %v: %v", d, f.CrashAt, f.Error)
		}
	}

	legacy := smallParams
	legacy.Legacy = true
	legacy.Ops = 24
	rep, err := gridSweep(specOf(t, config.Ideal), w, legacy, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures()) == 0 {
		t.Error("legacy linked list survived every crash point on unprotected encrypted NVMM")
	}
}

// TestOsirisRecoveryCostAccounted: crash sweeps under Osiris must report
// candidate-search work, and the per-line trial count must respect the
// stop-loss bound.
func TestOsirisRecoveryCostAccounted(t *testing.T) {
	spec := specOf(t, config.Osiris)
	p := smallParams
	p.Legacy = true
	traces := BuildTraces(&workloads.ArraySwap{}, p, 1)
	probe, _, err := probeRun(spec, traces)
	if err != nil {
		t.Fatal(err)
	}
	cfg := probe.Cfg
	res, err := inject(spec, &workloads.ArraySwap{}, traces, probe.RuntimeSoFar()/2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Osiris.Lines == 0 || res.Osiris.Trials == 0 {
		t.Fatalf("no recovery cost recorded: %+v", res.Osiris)
	}
	maxTrials := res.Osiris.Lines * (cfg.StopLoss + 1)
	if res.Osiris.Trials > maxTrials {
		t.Fatalf("trials %d exceed stop-loss bound %d", res.Osiris.Trials, maxTrials)
	}
	if res.Osiris.Unrecovered != 0 {
		t.Fatalf("%d lines unrecovered within the window", res.Osiris.Unrecovered)
	}
}

// TestFourCoreCrashConsistency stresses the shared controller with four
// cores mid-flight at every crash point.
func TestFourCoreCrashConsistency(t *testing.T) {
	spec := specOf(t, config.SCA)
	spec.Cores = 4
	for _, w := range []workloads.Workload{&workloads.HashTable{}, &workloads.LinkedList{}} {
		rep, err := gridSweep(spec, w, smallParams, 6)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range rep.Failures() {
			t.Errorf("%s: 4-core crash at %v: %v", w.Name(), f.CrashAt, f.Error)
		}
	}
}
