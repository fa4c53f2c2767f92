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
	"os"
	"sort"

	"encnvm/internal/core"
	"encnvm/internal/perf"
)

func main() {
	all := flag.Bool("all", false, "print unchanged rows too")
	version := flag.Bool("version", false, "print build/version information and exit")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: statdiff [-all] old.manifest.json new.manifest.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *version {
		perf.PrintVersion(os.Stdout, "statdiff")
		return
	}
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	oldM, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	newM, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("old: %s / %s / %d cores (seed %d)\n", oldM.Design, oldM.Workload, oldM.Cores, oldM.Params.Seed)
	fmt.Printf("new: %s / %s / %d cores (seed %d)\n", newM.Design, newM.Workload, newM.Cores, newM.Params.Seed)

	fmt.Println("\n--- results ---")
	row := newRowPrinter(*all)
	row.u64("runtime_ps", oldM.Results.RuntimePs, newM.Results.RuntimePs)
	row.u64("total_runtime_ps", oldM.Results.TotalRuntimePs, newM.Results.TotalRuntimePs)
	row.u64("transactions", uint64(oldM.Results.Transactions), uint64(newM.Results.Transactions))
	row.f64("throughput_tx_per_sec", oldM.Results.ThroughputTxPerSec, newM.Results.ThroughputTxPerSec)
	row.u64("bytes_written", oldM.Results.BytesWritten, newM.Results.BytesWritten)
	row.u64("sim_events", oldM.Results.SimEvents, newM.Results.SimEvents)
	row.u64("wear_total_writes", oldM.Results.WearTotalWrites, newM.Results.WearTotalWrites)
	row.u64("wear_hottest_line", oldM.Results.WearHottestLine, newM.Results.WearHottestLine)

	fmt.Println("\n--- counters ---")
	for _, k := range unionKeys(oldM.Counters, newM.Counters) {
		row.u64(k, oldM.Counters[k], newM.Counters[k])
	}

	fmt.Println("\n--- times (ps) ---")
	for _, k := range unionKeys(oldM.TimesPs, newM.TimesPs) {
		row.u64(k, oldM.TimesPs[k], newM.TimesPs[k])
	}

	fmt.Println("\n--- latencies (ps) ---")
	names := make(map[string]struct{})
	for k := range oldM.Latencies {
		names[k] = struct{}{}
	}
	for k := range newM.Latencies {
		names[k] = struct{}{}
	}
	sorted := make([]string, 0, len(names))
	for k := range names {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		o, n := oldM.Latencies[k], newM.Latencies[k]
		row.u64(k+".count", o.Count, n.Count)
		row.u64(k+".mean", o.MeanPs, n.MeanPs)
		row.u64(k+".p50", o.P50Ps, n.P50Ps)
		row.u64(k+".p95", o.P95Ps, n.P95Ps)
		row.u64(k+".p99", o.P99Ps, n.P99Ps)
		row.u64(k+".max", o.MaxPs, n.MaxPs)
	}

	if row.printed == 0 {
		fmt.Println("\nno differences")
	}
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

func unionKeys(a, b map[string]uint64) []string {
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
	all     bool
	printed int
}

func newRowPrinter(all bool) *rowPrinter { return &rowPrinter{all: all} }

func (r *rowPrinter) u64(name string, o, n uint64) {
	if o == n && !r.all {
		return
	}
	r.printed++
	delta := int64(n) - int64(o)
	fmt.Printf("%-44s %14d -> %-14d %+12d  %s\n", name, o, n, delta, pct(float64(o), float64(n)))
}

func (r *rowPrinter) f64(name string, o, n float64) {
	if o == n && !r.all {
		return
	}
	r.printed++
	fmt.Printf("%-44s %14.1f -> %-14.1f %+12.1f  %s\n", name, o, n, n-o, pct(o, n))
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
