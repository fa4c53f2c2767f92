// Command benchdiff turns `go test -bench` output into schema-tagged
// BENCH.json files and diffs two of them with per-metric noise
// tolerances — the allocation and timing gate of CI's bench and
// campaign jobs.
//
//	# capture: run the suite (or ingest saved output) into a BENCH file
//	benchdiff -run 'BenchmarkReplayPerDesign' -o BENCH.json
//	go test -run='^$' -bench . -benchmem . | benchdiff -parse - -o BENCH.json
//
//	# compare: old vs new, gate on ns/op noise tolerance
//	benchdiff BENCH_baseline.json bench_head.json
//
// A metric the old file lacks is reported but never gated, so a
// baseline can leave out ns/op where it holds no bound. A metric the old
// file records as an explicit zero gates any nonzero new value, so a
// baseline of 0 allocs/op holds allocations out.
//
// Exit status: 0 when every gated metric is within tolerance, 1 on a
// regression, 2 on a usage error or an unreadable or malformed file.
// (statdiff differs: it exits 1 on an unreadable manifest.)
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"encnvm/internal/perf"
)

// Schema tags the BENCH.json format.
const Schema = "encnvm/bench/v1"

// File is one captured benchmark suite run.
type File struct {
	Schema     string           `json:"schema"`
	Build      *perf.Build      `json:"build,omitempty"`
	Benchmarks map[string]Bench `json:"benchmarks"`
}

// Bench holds one benchmark's standard and custom metrics. Standard
// metrics read zero when absent, and a zero is written as absent;
// custom metrics keep their unit string as the key.
type Bench struct {
	Iterations  int64              `json:"iterations,omitempty"`
	NsPerOp     float64            `json:"ns_per_op,omitempty"`
	BytesPerOp  float64            `json:"b_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	MBPerSec    float64            `json:"mb_per_s,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`

	// named holds the JSON keys a decoded file set, so that compare can
	// tell an explicit zero from an absent field.
	named map[string]bool
}

// UnmarshalJSON decodes a Bench and records which keys it named.
func (b *Bench) UnmarshalJSON(data []byte) error {
	type plain Bench
	if err := json.Unmarshal(data, (*plain)(b)); err != nil {
		return err
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		return err
	}
	b.named = make(map[string]bool, len(keys))
	for k := range keys {
		b.named[k] = true
	}
	return nil
}

// gomaxprocsSuffix is the -N testing appends to benchmark names; it is
// stripped so keys stay stable across machines.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench reads `go test -bench` text output.
func parseBench(r io.Reader) (map[string]Bench, error) {
	out := make(map[string]Bench)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		// A benchmark result line is "Name iters (value unit)+"; the
		// bare "BenchmarkName" progress line with -v has no fields.
		if len(f) < 4 || len(f)%2 != 0 {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(f[0], "")
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad iteration count in %q: %w", line, err)
		}
		b := Bench{Iterations: iters}
		for i := 2; i+1 < len(f); i += 2 {
			val, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value in %q: %w", line, err)
			}
			switch unit := f[i+1]; unit {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				b.BytesPerOp = val
			case "allocs/op":
				b.AllocsPerOp = val
			case "MB/s":
				b.MBPerSec = val
			default:
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[unit] = val
			}
		}
		out[name] = b
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	return out, nil
}

func writeFile(w io.Writer, benches map[string]Bench) error {
	f := File{Schema: Schema, Build: perf.ReadBuild(), Benchmarks: benches}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

func loadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, Schema)
	}
	return &f, nil
}

// tolerances groups the per-metric noise gates. A zero tolerance
// disables gating for that metric class (changes are still reported).
type tolerances struct {
	ns      float64
	mem     float64
	metric  float64
	gate    *regexp.Regexp
	verbose bool
}

// delta is one compared metric.
type delta struct {
	bench, metric      string
	old, new, relative float64
	gated, regressed   bool
}

// compare walks the union of both files' benchmarks.
func compare(oldF, newF *File, tol tolerances) (rows []delta, missing, added []string) {
	names := make(map[string]bool)
	for n := range oldF.Benchmarks {
		names[n] = true
	}
	for n := range newF.Benchmarks {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	for _, name := range sorted {
		ob, inOld := oldF.Benchmarks[name]
		nb, inNew := newF.Benchmarks[name]
		switch {
		case !inNew:
			missing = append(missing, name)
			continue
		case !inOld:
			added = append(added, name)
			continue
		}
		gated := tol.gate == nil || tol.gate.MatchString(name)
		// explicitZero marks a baseline of 0 that the old file names: any
		// nonzero new value exceeds it.
		add := func(metric string, o, n, t float64, explicitZero bool) {
			if o == 0 && n == 0 {
				return
			}
			d := delta{bench: name, metric: metric, old: o, new: n, gated: gated && t > 0}
			switch {
			case o != 0:
				d.relative = (n - o) / o
			case explicitZero:
				d.relative = math.Inf(1)
			}
			d.regressed = d.gated && d.relative > t
			rows = append(rows, d)
		}
		add("ns/op", ob.NsPerOp, nb.NsPerOp, tol.ns, ob.named["ns_per_op"])
		add("B/op", ob.BytesPerOp, nb.BytesPerOp, tol.mem, ob.named["b_per_op"])
		add("allocs/op", ob.AllocsPerOp, nb.AllocsPerOp, tol.mem, ob.named["allocs_per_op"])
		units := make(map[string]bool)
		for u := range ob.Metrics {
			units[u] = true
		}
		for u := range nb.Metrics {
			units[u] = true
		}
		sortedUnits := make([]string, 0, len(units))
		for u := range units {
			sortedUnits = append(sortedUnits, u)
		}
		sort.Strings(sortedUnits)
		for _, u := range sortedUnits {
			o, named := ob.Metrics[u]
			add(u, o, nb.Metrics[u], tol.metric, named)
		}
	}
	return rows, missing, added
}

func printRows(w io.Writer, rows []delta, verbose bool) (regressions int) {
	for _, d := range rows {
		status := ""
		switch {
		case d.regressed:
			status = "  REGRESSION"
			regressions++
		case !verbose && d.relative == 0:
			continue
		}
		fmt.Fprintf(w, "%-52s %-14s %14.4g %14.4g %+8.1f%%%s\n",
			d.bench, d.metric, d.old, d.new, d.relative*100, status)
	}
	return regressions
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runRE     = fs.String("run", "", "run `go test -bench regex -benchmem` on the repo and capture its output")
		benchtime = fs.String("benchtime", "300ms", "benchtime for -run")
		pkg       = fs.String("pkg", ".", "package to benchmark with -run")
		parse     = fs.String("parse", "", "ingest saved `go test -bench` output from `file` (- for stdin)")
		out       = fs.String("o", "", "write the captured BENCH.json to `file` (default stdout)")
		tolNS     = fs.Float64("tol-ns", 0.25, "ns/op regression tolerance (fraction; 0 disables the gate)")
		tolMem    = fs.Float64("tol-mem", 0, "B/op and allocs/op regression tolerance (fraction; 0 disables)")
		tolMetric = fs.Float64("tol-metric", 0, "custom-metric regression tolerance (fraction; 0 disables)")
		gate      = fs.String("gate", "", "only benchmarks matching this regexp are gated (default: all)")
		verbose   = fs.Bool("v", false, "also print unchanged metrics")
		version   = fs.Bool("version", false, "print build/version information and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: benchdiff [-run regex | -parse file] [-o BENCH.json]\n")
		fmt.Fprintf(stderr, "       benchdiff [-tol-ns f] [-tol-mem f] [-tol-metric f] [-gate regex] old.json new.json\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *version {
		perf.PrintVersion(stdout, "benchdiff")
		return 0
	}

	// Capture modes: -run executes the suite, -parse ingests saved text.
	if *runRE != "" || *parse != "" {
		var in io.Reader
		switch {
		case *runRE != "" && *parse != "":
			fmt.Fprintln(stderr, "benchdiff: -run and -parse are mutually exclusive")
			return 2
		case *runRE != "":
			cmd := exec.Command("go", "test", "-run=^$", "-bench", *runRE,
				"-benchmem", "-benchtime", *benchtime, "-count=1", *pkg)
			cmd.Stderr = stderr
			outBytes, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "benchdiff: go test: %v\n", err)
				return 2
			}
			in = strings.NewReader(string(outBytes))
		case *parse == "-":
			in = os.Stdin
		default:
			f, err := os.Open(*parse)
			if err != nil {
				fmt.Fprintf(stderr, "benchdiff: %v\n", err)
				return 2
			}
			defer f.Close()
			in = f
		}
		benches, err := parseBench(in)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		w := stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintf(stderr, "benchdiff: %v\n", err)
				return 2
			}
			defer f.Close()
			w = f
		}
		if err := writeFile(w, benches); err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		return 0
	}

	// Diff mode.
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	oldF, err := loadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	newF, err := loadFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	tol := tolerances{ns: *tolNS, mem: *tolMem, metric: *tolMetric, verbose: *verbose}
	if *gate != "" {
		re, err := regexp.Compile(*gate)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: -gate: %v\n", err)
			return 2
		}
		tol.gate = re
	}
	rows, missing, added := compare(oldF, newF, tol)
	regressions := printRows(stdout, rows, *verbose)
	for _, n := range missing {
		fmt.Fprintf(stderr, "benchdiff: warning: %s present in %s but missing in %s\n", n, fs.Arg(0), fs.Arg(1))
	}
	for _, n := range added {
		fmt.Fprintf(stderr, "benchdiff: note: %s is new in %s\n", n, fs.Arg(1))
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "\n%d regression(s) beyond tolerance\n", regressions)
		return 1
	}
	fmt.Fprintf(stdout, "ok: %d metrics compared, none regressed beyond tolerance\n", len(rows))
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
