// Command perfbench is the repository's host benchmark: it times the
// simulator itself (host seconds, host memory), never the simulated
// machine. One invocation runs one workload for a fixed measuring time
// and prints one JSON result object as its last line of output:
//
//	go run ./perfbench --workload replay-grid --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each was chosen):
//
//	replay-grid     the paper workloads x every engine x {1,2} cores, replayed
//	crash-campaign  three pruned per-op crash campaigns at two workers
//
// --trace 0 reports the end-to-end metrics (work_per_s, wall_s,
// setup_s, alloc_mb, peak_heap_mb). --trace 1 is a separate traced run
// that reports the per-layer metrics instead: benchmark-side spans
// around every exported call, the library's perf regions, a CPU profile
// attributed to repository packages, and the simulators' own work
// counts. crash-campaign's traced run also runs the static suite — the
// verifier, pruner and linter over the extended trace set — for the
// static analyses' per-layer metrics. Either way the simulated outputs
// are checked: a failed check, error or panic counts as a failed cell.
//
// The benchmark drives the library only through exported functions, so
// every layer is timed from outside.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// defaultSeed is the seed whose output digests are pinned in pins.
const defaultSeed = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, measures one workload and prints its
// result. Exit status: 0 after printing a result (its "correct" field
// carries the verdict), 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: replay-grid or crash-campaign")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	spansDir := fs.String("spans-dir", "", "traced run: write the recorded spans into this directory as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: usage: perfbench --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	w, err := newWorkload(*name, *seed, fullSize)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res := measure(w, measureOptions{
		Seconds: time.Duration(*seconds * float64(time.Second)),
		Traced:  *traced == 1,
		Pin:     pinFor(*name, *seed),
		CalPin:  pinFor(*name+"/calibration", *seed),
		Log:     stderr,
	})
	if *spansDir != "" && res.tracer != nil {
		path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := writeSpans(path, res.tracer); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
		}
	}
	fmt.Fprintf(stdout, "digest %s seed=%d %s\n", *name, *seed, res.Digest)
	if res.CalDigest != "" {
		fmt.Fprintf(stdout, "digest %s/calibration seed=%d %s\n", *name, *seed, res.CalDigest)
	}
	return printResult(stdout, stderr, res)
}

// printResult writes the result object as the last line of stdout.
func printResult(stdout, stderr io.Writer, res *result) int {
	metrics := make(map[string]metricValue, len(res.Metrics))
	for _, m := range res.Metrics {
		metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeSpans writes a traced run's spans, creating the directory.
func writeSpans(path string, t *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
