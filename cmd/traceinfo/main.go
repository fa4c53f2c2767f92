// Command traceinfo generates and analyzes a workload's operation trace:
// op-kind histogram, footprint, persist-primitive density, transaction
// shape, and per-stage write counts. Useful for understanding what a
// workload actually asks of the memory system before replaying it.
//
// Usage:
//
//	traceinfo [-workload btree] [-items N] [-ops N] [-opspertx N]
//	          [-mode undo|redo] [-legacy] [-check]
//	traceinfo -in run.bin [-check]
//
// With -in, the traces are decoded from a binary trace file recorded by
// nvmsim -record-trace (or trace.WriteTracesFile) instead of being
// generated, and every core in the file is analyzed the same way a
// generated trace is. The setup/heap lines only appear in generated
// mode — a recorded file does not mark the setup boundary.
//
// With -check, the trace is additionally linted by internal/check against
// the crash-consistency ordering rules R1–R5 (§4.2–§4.3) and the command
// exits nonzero on any diagnostic. A -legacy trace is expected to be
// flagged: software unaware of counters cannot follow the protocol, which
// is the paper's §2.2 motivating failure. (In -in mode the file carries
// no arena geometry, so the log classifier — and with it R5 — is off.)
//
// Exit status: 0 clean, 1 lint diagnostics found, 2 usage error or an
// internally inconsistent trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"encnvm/internal/check"
	"encnvm/internal/mem"
	"encnvm/internal/perf"
	"encnvm/internal/persist"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code lifted out for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("traceinfo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "btree", "workload: "+strings.Join(workloads.ExtendedNames(), "|"))
	items := fs.Int("items", 1024, "initial structure population")
	ops := fs.Int("ops", 128, "measured operations")
	opsPerTx := fs.Int("opspertx", 1, "operations per transaction")
	mode := fs.String("mode", "undo", "transaction mechanism: undo|redo")
	legacy := fs.Bool("legacy", false, "legacy (pre-paper) persistency primitives")
	seed := fs.Int64("seed", 42, "workload RNG seed")
	in := fs.String("in", "", "analyze this binary trace file instead of generating a workload trace")
	doCheck := fs.Bool("check", false, "lint the trace against crash-consistency rules R1-R5")
	version := fs.Bool("version", false, "print build/version information and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr,
			"usage: traceinfo [-workload name] [-items N] [-ops N] [-opspertx N]\n"+
				"                 [-mode undo|redo] [-legacy] [-seed N] [-check]\n"+
				"       traceinfo -in run.bin [-check]\n\n"+
				"Exit status: 0 clean, 1 lint diagnostics found, 2 usage error or\n"+
				"an internally inconsistent trace.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *version {
		perf.PrintVersion(stdout, "traceinfo")
		return 0
	}

	if *in != "" {
		// Recorded-trace mode: decoding checks every core's trace.
		traces, err := trace.ReadTracesFile(*in)
		if err != nil {
			fmt.Fprintf(stderr, "trace invalid: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "trace file      %s (%d cores, binary records)\n", *in, len(traces))
		bad := false
		for i, tr := range traces {
			fmt.Fprintf(stdout, "\n=== core %d ===\n", i)
			fmt.Fprintf(stdout, "trace length    %d ops\n", tr.Len())
			footprint(stdout, tr)
			analyze(stdout, tr, 0)
			if *doCheck && lint(stdout, tr, nil) {
				bad = true
			}
		}
		if bad {
			return 1
		}
		return 0
	}

	w, err := workloads.ByName(*workload)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	txMode := persist.Undo
	if *mode == "redo" {
		txMode = persist.Redo
	} else if *mode != "undo" {
		fmt.Fprintf(stderr, "unknown mode %q\n", *mode)
		return 2
	}

	p := workloads.Params{Seed: *seed, Items: *items, Ops: *ops, OpsPerTx: *opsPerTx}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	rt := persist.NewRuntime(persist.ArenaFor(0, 64<<20))
	rt.SetLegacy(*legacy)
	rt.SetTxMode(txMode)
	w.Setup(rt, p)
	setupLen := rt.Trace().Len()
	w.Run(rt, p)
	tr := rt.Trace()

	// An invalid trace is a generator bug, not a lint finding: exit 2.
	if err := tr.Validate(); err != nil {
		fmt.Fprintf(stderr, "trace invalid: %v\n", err)
		return 2
	}

	fmt.Fprintf(stdout, "workload        %s (mode=%v, legacy=%v)\n", w.Name(), txMode, *legacy)
	fmt.Fprintf(stdout, "trace length    %d ops (%d setup + %d measured)\n", tr.Len(), setupLen, tr.Len()-setupLen)
	footprint(stdout, tr)
	fmt.Fprintf(stdout, "heap used       %.1f KB\n", float64(rt.HeapUsed())/1024)
	analyze(stdout, tr, setupLen)

	if *doCheck && lint(stdout, tr, []persist.Arena{rt.Arena()}) {
		return 1
	}
	return 0
}

// footprint prints a trace's transaction count and data footprint.
func footprint(w io.Writer, tr *trace.Trace) {
	fmt.Fprintf(w, "transactions    %d\n", tr.Transactions())
	lines := tr.FootprintLines()
	fmt.Fprintf(w, "data footprint  %d lines (%.1f KB)\n", lines, float64(lines)*mem.LineBytes/1024)
}

// analyze prints the op histogram and persist-primitive shape of one
// core's trace; per-transaction averages count only the ops after
// setupLen.
func analyze(w io.Writer, tr *trace.Trace, setupLen int) {
	counts := tr.Counts()
	fmt.Fprintln(w, "\nop histogram:")
	for _, k := range []trace.Kind{trace.Read, trace.Write, trace.Clwb, trace.CCWB,
		trace.Sfence, trace.Compute, trace.TxBegin, trace.TxEnd} {
		fmt.Fprintf(w, "  %-8v %8d\n", k, counts[k])
	}

	// Counter-atomic store density and per-transaction averages over the
	// measured (post-setup) phase only.
	caStores, caLines := 0, map[mem.Addr]bool{}
	writeLines := map[mem.Addr]bool{}
	measured := map[trace.Kind]int{}
	for i, n := 0, tr.Len(); i < n; i++ {
		op := tr.At(i)
		if i >= setupLen {
			measured[op.Kind]++
		}
		if op.Kind == trace.Write {
			writeLines[op.Addr.LineAddr()] = true
			if op.CounterAtomic {
				caStores++
				caLines[op.Addr.LineAddr()] = true
			}
		}
	}
	fmt.Fprintf(w, "\ncounter-atomic stores   %d (%.2f%% of writes, %d distinct lines)\n",
		caStores, pct(caStores, counts[trace.Write]), len(caLines))
	if tx := tr.Transactions(); tx > 0 {
		fmt.Fprintf(w, "per transaction         %.1f writes, %.1f clwb, %.1f ccwb, %.1f fences, %.1f reads\n",
			avg(measured[trace.Write], tx), avg(measured[trace.Clwb], tx),
			avg(measured[trace.CCWB], tx), avg(measured[trace.Sfence], tx),
			avg(measured[trace.Read], tx))
	}
	fmt.Fprintf(w, "distinct lines written  %d\n", len(writeLines))
}

// lint runs the R1-R5 linter over the trace and prints its findings;
// reports whether any diagnostic fired.
func lint(w io.Writer, tr *trace.Trace, arenas []persist.Arena) bool {
	diags := check.Check(tr, check.Options{Arenas: arenas})
	fmt.Fprintln(w, "\ncrash-consistency lint (rules R1-R5):")
	if len(diags) == 0 {
		fmt.Fprintln(w, "  clean — no ordering-rule violations")
		return false
	}
	for _, d := range diags {
		fmt.Fprintf(w, "  %s\n", d)
	}
	fmt.Fprintf(w, "persistcheck: %d diagnostic(s)\n", len(diags))
	return true
}

func pct(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}

func avg(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}
