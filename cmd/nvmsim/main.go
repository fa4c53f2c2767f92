// Command nvmsim runs one workload under one memory-system design and
// prints the run's measurements and detailed statistics. With the
// observability flags it additionally emits a Perfetto timeline of the
// run, windowed JSONL metrics, and a machine-readable run manifest.
//
// Usage:
//
//	nvmsim [-design sca] [-workload btree] [-cores 1] [-items N] [-ops N]
//	       [-opspertx N] [-seed N] [-verify] [-stats] [-json]
//	       [-trace-out run.trace.json] [-metrics-out run.metrics.jsonl]
//	       [-metrics-window-ns 1000] [-manifest-out run.manifest.json]
//	nvmsim -spec machine.json [-workload btree] ...
//	nvmsim [-design sca | -spec machine.json] -dump-spec
//	nvmsim -record-trace run.bin [-workload btree] ...
//	nvmsim -replay-trace run.bin [-design sca] ...
//
// -design names a registered machine spec (the seven paper designs are
// built in); -spec loads a declarative machine spec from a JSON file
// instead. -dump-spec prints the fully resolved spec for the selected
// machine and exits — its output round-trips through -spec.
//
// -record-trace additionally serializes the workload's per-core traces
// to a binary trace file (the streaming IR) before the run; trace
// generation is deterministic, so the file replays byte-identically.
// -replay-trace skips workload generation entirely and replays a
// recorded file, decoding records in place — the two paths produce
// identical manifests for the same workload and parameters. A trace file
// records neither: -workload labels the replay, and -verify fails unless
// the final image holds that workload's published structure; the
// manifest's params come from -items, -ops, -opspertx and -seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"encnvm/internal/core"
	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/perf"
	"encnvm/internal/probe"
	"encnvm/internal/sim"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code lifted out for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nvmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	design := fs.String("design", "sca", "registered machine: "+strings.Join(machine.Names(), "|"))
	specPath := fs.String("spec", "", "load a declarative machine spec from this JSON file (overrides -design/-cores)")
	dumpSpec := fs.Bool("dump-spec", false, "print the resolved machine spec as JSON and exit")
	workload := fs.String("workload", "btree", "workload: "+strings.Join(workloads.ExtendedNames(), "|"))
	cores := fs.Int("cores", 1, "number of cores")
	items := fs.Int("items", 4096, "initial structure population")
	ops := fs.Int("ops", 256, "measured operations per core")
	opsPerTx := fs.Int("opspertx", 1, "operations per transaction")
	seed := fs.Int64("seed", 42, "workload RNG seed")
	verify := fs.Bool("verify", true, "validate the final NVM image end-to-end")
	showStats := fs.Bool("stats", false, "dump detailed statistics")
	jsonOut := fs.Bool("json", false, "print the run manifest as JSON on stdout instead of text")
	traceOut := fs.String("trace-out", "", "write a Perfetto/chrome://tracing timeline (simulated time) to this file")
	metricsOut := fs.String("metrics-out", "", "write windowed JSONL time-series metrics to this file")
	metricsWindowNS := fs.Uint64("metrics-window-ns", 1000, "metrics window length in simulated nanoseconds")
	manifestOut := fs.String("manifest-out", "", "write the machine-readable run manifest to this file")
	recordTrace := fs.String("record-trace", "", "serialize the workload's per-core traces to this binary trace file before running")
	replayTrace := fs.String("replay-trace", "", "replay a recorded binary trace file instead of generating the workload; the file names neither workload nor params, so -workload (checked by -verify) and -items/-ops/-opspertx/-seed label the run and its manifest")
	version := fs.Bool("version", false, "print build/version information and exit")
	perfOpts := perf.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *version {
		perf.PrintVersion(stdout, "nvmsim")
		return 0
	}
	session, err := perfOpts.Begin("nvmsim", args)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	spec, err := machine.LoadSpec(*specPath, *design, *cores)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *dumpSpec {
		resolved, err := spec.Resolved()
		if err == nil {
			err = resolved.Encode(stdout)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	if _, err := workloads.ByName(*workload); err != nil {
		fmt.Fprintf(stderr, "unknown workload %q (valid: %s)\n",
			*workload, strings.Join(workloads.ExtendedNames(), "|"))
		return 2
	}

	var pb *probe.Probe
	var sinks []*os.File
	openSink := func(path string) (io.Writer, error) {
		f, err := os.Create(path)
		if err == nil {
			sinks = append(sinks, f)
		}
		return f, err
	}
	if *traceOut != "" || *metricsOut != "" {
		pb = probe.New()
		if *traceOut != "" {
			f, err := openSink(*traceOut)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			pb.AttachTrace(f)
		}
		if *metricsOut != "" {
			f, err := openSink(*metricsOut)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			pb.AttachMetrics(f, sim.Time(*metricsWindowNS)*sim.Nanosecond)
		}
	}

	params := workloads.Params{
		Seed: *seed, Items: *items, Ops: *ops, OpsPerTx: *opsPerTx,
	}
	if err := params.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var res core.Result
	switch {
	case *replayTrace != "":
		if *recordTrace != "" {
			fmt.Fprintln(stderr, "-record-trace and -replay-trace are mutually exclusive")
			return 2
		}
		readers, err := trace.ReadTracesFile(*replayTrace)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if *specPath == "" {
			// The recorded file fixes the core count; the registered-spec
			// path adopts it so -cores need not be repeated at replay.
			spec.Cores = len(readers)
		}
		m, err := machine.Build(spec)
		if err == nil {
			res, err = core.Run(m, *workload, readers, pb)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	default:
		if *recordTrace != "" {
			w, _ := workloads.ByName(*workload)
			cfg, err := spec.Config()
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			traces := crash.BuildTraces(w, params.WithDefaults(), cfg.NumCores)
			if err := trace.WriteTracesFile(*recordTrace, traces); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		var err error
		res, err = core.RunWorkload(core.Options{
			Spec:     spec,
			Workload: *workload,
			Params:   params,
			Probe:    pb,
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if err := pb.Close(res.System.Eng.Now()); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for _, f := range sinks {
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	if *manifestOut != "" || *jsonOut {
		m := core.BuildManifest(res, params.WithDefaults())
		m.Host = perf.ReadBuild()
		if *manifestOut != "" {
			f, err := os.Create(*manifestOut)
			if err == nil {
				err = m.Encode(f)
			}
			if err == nil {
				err = f.Close()
			}
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		if *jsonOut {
			if err := m.Encode(stdout); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
	}

	if !*jsonOut {
		fmt.Fprintf(stdout, "design            %v\n", res.Design)
		fmt.Fprintf(stdout, "workload          %s (%d cores)\n", res.Workload, res.Cores)
		fmt.Fprintf(stdout, "transactions      %d\n", res.Transactions)
		fmt.Fprintf(stdout, "measured runtime  %.1f us\n", res.Runtime.Nanoseconds()/1000)
		fmt.Fprintf(stdout, "total runtime     %.1f us (incl. setup)\n", res.TotalRuntime.Nanoseconds()/1000)
		fmt.Fprintf(stdout, "throughput        %.0f tx/s\n", res.Throughput)
		fmt.Fprintf(stdout, "NVM bytes written %d\n", res.BytesWritten)
	}

	if *verify {
		if err := core.VerifyResult(res); err != nil {
			fmt.Fprintf(stderr, "VERIFICATION FAILED: %v\n", err)
			return 1
		}
		if !*jsonOut {
			fmt.Fprintln(stdout, "verification      final NVM image decrypts and validates OK")
		}
	}
	if *showStats && !*jsonOut {
		fmt.Fprintln(stdout, "\n--- statistics ---")
		fmt.Fprint(stdout, res.Stats.String())
	}
	if err := session.End(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
