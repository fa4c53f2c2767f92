// Command persistcheck is the repo's static checker for
// persistency-protocol bugs, with three independent halves:
//
// Source analysis (default): runs the internal/check/analyzers suite —
// rawspacewrite (stores that bypass the trace) and persistorder
// (writebacks a control-flow path leaves unordered) — over the non-test
// Go files of package directories and prints findings in the familiar
// file:line:col form.
//
// Trace verification (-verify): builds every built-in workload trace in
// both transaction modes and statically enumerates every crash-point
// equivalence class through internal/check/verify, proving that all
// reachable persisted images satisfy counter-atomicity, seal-before-
// mutate, and commit ordering. Violations come with concrete crash
// schedules; -cex-dir writes each as a JSON counterexample replayable by
// `crashtest -schedule`.
//
// Engine contract checking (-enginecheck): model-checks every registry
// engine's policy table — plus any machine-spec JSON files named as
// arguments — against the contract rules C0–C4 and, by symbolically
// executing the abstract programs under the engine's derived persistence
// model, the verifier invariants V0–V5. V-rule findings carry concrete
// crash schedules; -cex-dir writes each as a self-contained JSON
// counterexample whose abstract trace replays through the verify
// machinery. -mutants runs the built-in self-test instead: every seeded
// bad-engine mutant must be caught by one of its expected rules.
//
// Usage:
//
//	persistcheck [-list] [-analyzers names] [dir ...]
//	persistcheck -verify [-items N] [-ops N] [-opspertx N] [-seed N]
//	             [-cex-dir dir] [-spec machine.json]
//	persistcheck -enginecheck [-cex-dir dir] [spec.json ...]
//	persistcheck -mutants
//
// With -spec, the named declarative machine spec is decoded, validated,
// and resolved to a full configuration before verification runs — a
// malformed spec fails fast with exit 2, so CI can gate custom machine
// definitions alongside the trace proofs. -enginecheck applies the same
// treatment to its spec.json arguments: each is resolved to its engine
// and configuration, then contract-checked under that sizing.
//
// Each directory argument is checked recursively ("./..." is accepted as
// a synonym for "."); with no arguments the current directory tree is
// checked. testdata and hidden directories are skipped unless named
// explicitly.
//
// Exit status: 0 clean, 1 findings or violations, 2 usage or I/O error.
package main

import (
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"encnvm/internal/check"
	"encnvm/internal/check/analyzers"
	"encnvm/internal/check/enginecheck"
	"encnvm/internal/check/verify"
	"encnvm/internal/config"
	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/machine/engines"
	"encnvm/internal/perf"
	"encnvm/internal/persist"
	"encnvm/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code lifted out for testing.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("persistcheck", flag.ContinueOnError)
	flags.SetOutput(stderr)
	list := flags.Bool("list", false, "list analyzers and exit")
	names := flags.String("analyzers", "all", "comma-separated analyzer subset to run")
	doVerify := flags.Bool("verify", false, "statically verify all built-in workload traces instead of analyzing source")
	items := flags.Int("items", 64, "verify: initial structure population")
	ops := flags.Int("ops", 24, "verify: measured operations")
	opsPerTx := flags.Int("opspertx", 4, "verify: operations per transaction")
	seed := flags.Int64("seed", 7, "verify: workload RNG seed")
	cexDir := flags.String("cex-dir", "", "verify/enginecheck: write counterexamples to this directory")
	specPath := flags.String("spec", "", "verify: validate this machine-spec JSON file and resolve its configuration first")
	engineCheck := flags.Bool("enginecheck", false, "contract-check every registry engine (and any spec.json arguments) instead of analyzing source")
	mutantsMode := flags.Bool("mutants", false, "self-test: every seeded bad-engine mutant must be caught by an expected rule")
	version := flags.Bool("version", false, "print build/version information and exit")
	flags.Usage = func() {
		fmt.Fprintf(stderr,
			"usage: persistcheck [-list] [-analyzers names] [dir ...]\n"+
				"       persistcheck -verify [-items N] [-ops N] [-opspertx N] [-seed N] [-cex-dir dir] [-spec machine.json]\n"+
				"       persistcheck -enginecheck [-cex-dir dir] [spec.json ...]\n"+
				"       persistcheck -mutants\n\n"+
				"Exit status: 0 clean, 1 findings or violations, 2 usage or I/O error.\n\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *version {
		perf.PrintVersion(stdout, "persistcheck")
		return 0
	}
	if *list {
		printCatalog(stdout)
		return 0
	}
	if *mutantsMode {
		return runMutants(stdout, stderr, *cexDir)
	}
	if *engineCheck {
		return runEngineCheck(stdout, stderr, flags.Args(), *cexDir)
	}
	if *doVerify {
		p := workloads.Params{Seed: *seed, Items: *items, Ops: *ops, OpsPerTx: *opsPerTx}
		if err := p.Validate(); err != nil {
			fmt.Fprintf(stderr, "persistcheck: %v\n", err)
			return 2
		}
		if *specPath != "" {
			r, cfg, err := loadSpec(*specPath)
			if err != nil {
				fmt.Fprintf(stderr, "persistcheck: %v\n", err)
				return 2
			}
			fmt.Fprintf(stdout, "machine spec %s: engine %s, backend %s, %d core(s), design %v — OK\n",
				*specPath, r.Engine, r.Backend, cfg.NumCores, cfg.Design)
		}
		return runVerify(stdout, stderr, p, *cexDir)
	}
	if *specPath != "" {
		fmt.Fprintln(stderr, "persistcheck: -spec requires -verify")
		return 2
	}

	as, err := analyzers.ByName(*names)
	if err != nil {
		fmt.Fprintf(stderr, "persistcheck: %v\n", err)
		return 2
	}
	roots := flags.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	findings := 0
	for _, root := range roots {
		root = strings.TrimSuffix(root, "/...")
		if root == "" {
			root = "."
		}
		dirs, err := analyzers.Walk(root)
		if err != nil {
			fmt.Fprintf(stderr, "persistcheck: %v\n", err)
			return 2
		}
		for _, dir := range dirs {
			found, err := analyzers.RunDir(dir, as)
			if err != nil {
				fmt.Fprintf(stderr, "persistcheck: %v\n", err)
				return 2
			}
			for _, f := range found {
				fmt.Fprintf(stdout, "%s: %s: %s\n", f.Pos, f.Analyzer, f.Message)
				findings++
			}
		}
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "persistcheck: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

// printCatalog lists every analyzer and check pass the tool exposes,
// with the one-line doc each maintains for exactly this listing.
func printCatalog(w io.Writer) {
	fmt.Fprintln(w, "Source analyzers (per-package, default set):")
	for _, a := range analyzers.All() {
		fmt.Fprintf(w, "  %-14s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintln(w, "\nTrace lint rules (traceinfo -check):")
	for _, d := range check.RuleDocs() {
		fmt.Fprintf(w, "  %s\n", d)
	}
	fmt.Fprintln(w, "\nTrace verifier invariants (-verify):")
	for _, v := range verify.Invariants() {
		fmt.Fprintf(w, "  %-4s %s\n", v.ID, v.Doc)
	}
	fmt.Fprintln(w, "\nEngine contract rules (-enginecheck):")
	for _, r := range enginecheck.Rules() {
		fmt.Fprintf(w, "  %-4s %s\n", r.ID, r.Doc)
	}
}

// runEngineCheck contract-checks every registry engine under its design
// default configuration, then every machine-spec file named on the
// command line under its resolved configuration, returning the process
// exit code. V-rule findings are written to cexDir as replayable
// abstract-trace counterexamples.
func runEngineCheck(stdout, stderr io.Writer, specPaths []string, cexDir string) int {
	if cexDir != "" {
		if err := os.MkdirAll(cexDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "persistcheck: %v\n", err)
			return 2
		}
	}
	type target struct {
		eng engines.Engine
		cfg *config.Config
		src string
	}
	var targets []target
	for _, name := range engines.Names() {
		e, err := engines.ByName(name)
		if err != nil {
			fmt.Fprintf(stderr, "persistcheck: %v\n", err)
			return 2
		}
		targets = append(targets, target{e, config.Default(e.Design), "registry"})
	}
	// Each spec file is checked under its own sizing: stop-loss windows
	// scale with the counter cache, not the Table-2 default.
	for _, path := range specPaths {
		spec, cfg, err := loadSpec(path)
		if err != nil {
			fmt.Fprintf(stderr, "persistcheck: %v\n", err)
			return 2
		}
		eng, _ := engines.ByName(spec.Engine) // validated by loadSpec
		targets = append(targets, target{eng, cfg, path})
	}
	exit := 0
	for _, t := range targets {
		rep := enginecheck.Check(t.eng, t.cfg)
		status := "OK"
		if !rep.Clean() {
			status = fmt.Sprintf("%d finding(s)", len(rep.Findings))
		}
		fmt.Fprintf(stdout, "%-14s %2d abstract programs (%s): %s\n",
			t.eng.Name, rep.Programs, t.src, status)
		if rep.Clean() {
			continue
		}
		exit = 1
		for i, f := range rep.Findings {
			fmt.Fprintf(stdout, "  %s\n", f)
			if f.Violation == nil || cexDir == "" {
				continue
			}
			file := enginecheck.NewFile(t.eng.Name, f, enginecheck.ModelFor(t.eng, t.cfg))
			path := filepath.Join(cexDir,
				fmt.Sprintf("%s-%s-%d.json", t.eng.Name, f.Rule, i))
			if err := file.WriteFile(path); err != nil {
				fmt.Fprintf(stderr, "persistcheck: %v\n", err)
				return 2
			}
			fmt.Fprintf(stdout, "    counterexample written to %s\n", path)
		}
	}
	return exit
}

// runMutants runs the seeded bad-engine catalog through the checker:
// every mutant must draw at least one finding, and at least one finding
// must carry a rule its catalog entry expects. This is the proof that
// the contract rules have teeth, run in CI next to the clean gate. With
// cexDir, each mutant's first V-rule finding is written out as a
// replayable counterexample.
func runMutants(stdout, stderr io.Writer, cexDir string) int {
	if cexDir != "" {
		if err := os.MkdirAll(cexDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "persistcheck: %v\n", err)
			return 2
		}
	}
	bad := 0
	catalog := enginecheck.Mutants()
	for _, m := range catalog {
		rep := enginecheck.Check(m.Engine, nil)
		if rep.Clean() {
			bad++
			fmt.Fprintf(stdout, "%-26s ESCAPED — %s\n", m.Engine.Name, m.Why)
			continue
		}
		var rules []string
		ruleSeen := map[string]bool{}
		matched := false
		for _, f := range rep.Findings {
			if !ruleSeen[f.Rule] {
				ruleSeen[f.Rule] = true
				rules = append(rules, f.Rule)
			}
			for _, want := range m.Expect {
				if f.Rule == want {
					matched = true
				}
			}
		}
		if !matched {
			bad++
			fmt.Fprintf(stdout, "%-26s caught by %v, want one of %v\n",
				m.Engine.Name, rules, m.Expect)
			continue
		}
		fmt.Fprintf(stdout, "%-26s caught by %v (expected %v)\n",
			m.Engine.Name, rules, m.Expect)
		if cexDir == "" {
			continue
		}
		for _, f := range rep.Findings {
			if f.Violation == nil {
				continue
			}
			file := enginecheck.NewFile(m.Engine.Name, f,
				enginecheck.ModelFor(m.Engine, config.Default(m.Engine.Design)))
			path := filepath.Join(cexDir,
				fmt.Sprintf("%s-%s.json", m.Engine.Name, f.Rule))
			if err := file.WriteFile(path); err != nil {
				fmt.Fprintf(stderr, "persistcheck: %v\n", err)
				return 2
			}
			fmt.Fprintf(stdout, "    counterexample written to %s\n", path)
			break
		}
	}
	fmt.Fprintf(stdout, "%d/%d mutants caught by their expected rules\n",
		len(catalog)-bad, len(catalog))
	if bad > 0 {
		return 1
	}
	return 0
}

// loadSpec decodes, validates, and fully resolves a machine-spec file,
// confirming it describes a buildable machine. It returns the resolved
// spec and the configuration it implies.
func loadSpec(path string) (*machine.Spec, *config.Config, error) {
	spec, err := machine.LoadSpec(path, "", 0)
	if _, open := err.(*fs.PathError); open {
		return nil, nil, err // os.Open's error already names the file
	}
	if err == nil {
		spec, err = spec.Resolved()
	}
	var cfg *config.Config
	if err == nil {
		cfg, err = spec.Config()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %v", path, err)
	}
	return spec, cfg, nil
}

// runVerify statically verifies every built-in workload trace in both
// transaction modes, returning the process exit code.
func runVerify(stdout, stderr io.Writer, p workloads.Params, cexDir string) int {
	if cexDir != "" {
		if err := os.MkdirAll(cexDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "persistcheck: %v\n", err)
			return 2
		}
	}
	exit := 0
	arena := persist.ArenaFor(0, crash.DefaultArena)
	opts := verify.Options{Arenas: []persist.Arena{arena}}
	for _, mode := range []persist.TxMode{persist.Undo, persist.Redo} {
		for _, w := range workloads.Extended() {
			wp := p
			wp.TxMode = mode
			tr := crash.BuildTraces(w, wp, 1)[0]
			if err := tr.Validate(); err != nil {
				fmt.Fprintf(stderr, "persistcheck: %s/%s: invalid trace: %v\n",
					w.Name(), mode, err)
				return 2
			}
			res := verify.Verify(tr, opts)
			status := "clean"
			if !res.Clean() {
				status = fmt.Sprintf("%d VIOLATION(S)", len(res.Violations))
			}
			fmt.Fprintf(stdout, "%-10s %-4s  %6d ops, %4d epochs, %5d crash classes: %s\n",
				w.Name(), mode, res.Ops, res.Epochs, res.Classes, status)
			if res.Clean() {
				continue
			}
			exit = 1
			for i, v := range res.Violations {
				fmt.Fprintf(stdout, "  %v\n", v)
				if v.Schedule == nil || cexDir == "" {
					continue
				}
				f := &verify.File{
					Workload: w.Name(), TxMode: mode.String(),
					Seed: wp.Seed, Items: wp.Items, Ops: wp.Ops,
					OpsPerTx: wp.OpsPerTx, Cores: 1,
					Schedule: *v.Schedule,
				}
				path := filepath.Join(cexDir,
					fmt.Sprintf("%s-%s-%s-op%d-%d.json", w.Name(), mode, v.Inv, v.OpIndex, i))
				if err := f.WriteFile(path); err != nil {
					fmt.Fprintf(stderr, "persistcheck: %v\n", err)
					return 2
				}
				fmt.Fprintf(stdout, "    counterexample written to %s\n", path)
			}
		}
	}
	return exit
}
