// Command statdiff compares two run manifests produced by nvmsim
// (-manifest-out / -json) and prints the headline results, counters, and
// latency-quantile deltas with percentage change — the review tool for
// "did this change move the simulator's behaviour".
//
// Usage:
//
//	statdiff [-all] old.manifest.json new.manifest.json
//
// By default only rows that changed are printed; -all prints everything.
// Exit status: 0 on success (differences are not an error), 1 on
// unreadable or malformed manifests, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"encnvm/internal/core"
	"encnvm/internal/perf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code lifted out for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("statdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	all := fs.Bool("all", false, "print unchanged rows too")
	version := fs.Bool("version", false, "print build/version information and exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: statdiff [-all] old.manifest.json new.manifest.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *version {
		perf.PrintVersion(stdout, "statdiff")
		return 0
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	oldM, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	newM, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	fmt.Fprintf(stdout, "old: %s / %s / %d cores (seed %d)\n", oldM.Design, oldM.Workload, oldM.Cores, oldM.Params.Seed)
	fmt.Fprintf(stdout, "new: %s / %s / %d cores (seed %d)\n", newM.Design, newM.Workload, newM.Cores, newM.Params.Seed)

	fmt.Fprintln(stdout, "\n--- results ---")
	row := &rowPrinter{w: stdout, all: *all}
	row.u64("runtime_ps", oldM.Results.RuntimePs, newM.Results.RuntimePs)
	row.u64("total_runtime_ps", oldM.Results.TotalRuntimePs, newM.Results.TotalRuntimePs)
	row.u64("transactions", uint64(oldM.Results.Transactions), uint64(newM.Results.Transactions))
	row.f64("throughput_tx_per_sec", oldM.Results.ThroughputTxPerSec, newM.Results.ThroughputTxPerSec)
	row.u64("bytes_written", oldM.Results.BytesWritten, newM.Results.BytesWritten)
	row.u64("sim_events", oldM.Results.SimEvents, newM.Results.SimEvents)
	row.u64("wear_total_writes", oldM.Results.WearTotalWrites, newM.Results.WearTotalWrites)
	row.u64("wear_hottest_line", oldM.Results.WearHottestLine, newM.Results.WearHottestLine)

	fmt.Fprintln(stdout, "\n--- counters ---")
	for _, k := range unionKeys(oldM.Counters, newM.Counters) {
		row.u64(k, oldM.Counters[k], newM.Counters[k])
	}

	fmt.Fprintln(stdout, "\n--- times (ps) ---")
	for _, k := range unionKeys(oldM.TimesPs, newM.TimesPs) {
		row.u64(k, oldM.TimesPs[k], newM.TimesPs[k])
	}

	fmt.Fprintln(stdout, "\n--- latencies (ps) ---")
	for _, k := range unionKeys(oldM.Latencies, newM.Latencies) {
		o, n := oldM.Latencies[k], newM.Latencies[k]
		row.u64(k+".count", o.Count, n.Count)
		row.u64(k+".mean", o.MeanPs, n.MeanPs)
		row.u64(k+".p50", o.P50Ps, n.P50Ps)
		row.u64(k+".p95", o.P95Ps, n.P95Ps)
		row.u64(k+".p99", o.P99Ps, n.P99Ps)
		row.u64(k+".max", o.MaxPs, n.MaxPs)
	}

	if row.printed == 0 {
		fmt.Fprintln(stdout, "\nno differences")
	}
	return 0
}

func load(path string) (*core.Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := core.DecodeManifest(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// unionKeys returns the names either map holds, sorted.
func unionKeys[V any](a, b map[string]V) []string {
	seen := make(map[string]struct{}, len(a)+len(b))
	for k := range a {
		seen[k] = struct{}{}
	}
	for k := range b {
		seen[k] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// rowPrinter prints aligned old/new/delta/% rows, suppressing unchanged
// rows unless all is set.
type rowPrinter struct {
	w       io.Writer
	all     bool
	printed int
}

func (r *rowPrinter) u64(name string, o, n uint64) {
	if o == n && !r.all {
		return
	}
	r.printed++
	delta := int64(n) - int64(o)
	fmt.Fprintf(r.w, "%-44s %14d -> %-14d %+12d  %s\n", name, o, n, delta, pct(float64(o), float64(n)))
}

func (r *rowPrinter) f64(name string, o, n float64) {
	if o == n && !r.all {
		return
	}
	r.printed++
	fmt.Fprintf(r.w, "%-44s %14.1f -> %-14.1f %+12.1f  %s\n", name, o, n, n-o, pct(o, n))
}

// pct renders the relative change from o to n.
func pct(o, n float64) string {
	if o == n {
		return "0.0%"
	}
	if o == 0 {
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", 100*(n-o)/o)
}
