package main

import (
	"time"
)

// layerMetric is one per-layer metric of the traced run, derived from
// raw sums over its traced passes. Metrics of a layer a workload does
// not exercise read 0.
type layerMetric struct {
	Name string
	Unit string
	f    func(a *layerAgg) float64
}

// layerAgg pools the traced passes of one run.
type layerAgg struct {
	raw      map[string]float64 // summed over traced passes, plus the calibration
	cal      map[string]float64 // the calibration's own sums
	passes   float64
	cells    []float64 // cell walls, ms
	busy     time.Duration
	wall     time.Duration
	workers  int
	overhead float64
}

// perPass is a raw sum averaged over the traced passes.
func (a *layerAgg) perPass(key string) float64 { return a.raw[key] / a.passes }

// ratio divides two raw sums (0 when the denominator is).
func (a *layerAgg) ratio(num, den string) float64 {
	if a.raw[den] == 0 {
		return 0
	}
	return a.raw[num] / a.raw[den]
}

const nsPerMS = 1e6

// layerTable defines every per-layer metric. BENCHMARK.json lists the
// same names and units; a test holds the two together.
var layerTable = []layerMetric{
	// workloads + persist: trace generation (the "trace-build" perf region).
	{"workloads.gen_ms", "ms", func(a *layerAgg) float64 { return a.perPass("perf:trace-build") / nsPerMS }},
	{"workloads.gen_ns_per_op", "ns", func(a *layerAgg) float64 { return a.ratio("perf:trace-build", "gen_ops") }},

	// machine: per machine.Build/FromConfig call, from runtime counts.
	{"machine.builds", "count", func(a *layerAgg) float64 { return a.perPass("builds") }},
	{"machine.build_us", "us", func(a *layerAgg) float64 { return a.ratio("build_ns", "build_calls") / 1e3 }},
	{"machine.build_kb", "KiB", func(a *layerAgg) float64 { return a.ratio("build_bytes", "build_calls") / 1024 }},
	{"machine.build_allocs", "count", func(a *layerAgg) float64 { return a.ratio("build_objs", "build_calls") }},

	// replay: replay.NewMachine and a span around System.Run.
	{"replay.attach_us", "us", func(a *layerAgg) float64 { return a.ratio("attach_ns", "attach_calls") / 1e3 }},
	{"replay.ms", "ms", func(a *layerAgg) float64 { return a.perPass("replay_ns") / nsPerMS }},
	{"replay.ns_per_op", "ns", func(a *layerAgg) float64 { return a.ratio("replay_ns", "replay_ops") }},
	{"replay.allocs_per_op", "count", func(a *layerAgg) float64 { return a.ratio("replay_objs", "replay_ops") }},

	// sim: the event engine's Steps.
	{"sim.events", "count", func(a *layerAgg) float64 { return a.perPass("events") }},
	{"sim.events_per_op", "count", func(a *layerAgg) float64 { return a.ratio("events", "replay_ops") }},
	{"sim.ns_per_event", "ns", func(a *layerAgg) float64 { return a.ratio("replay_ns", "events") }},

	// Simulated work counts of the modelled components.
	{"cache.l1_hit_rate", "ratio", func(a *layerAgg) float64 { return a.ratio("l1_hits", "l1_accesses") }},
	{"cache.l2_hit_rate", "ratio", func(a *layerAgg) float64 { return a.ratio("l2_hits", "l2_accesses") }},
	{"memctrl.ctr_hit_rate", "ratio", func(a *layerAgg) float64 { return a.ratio("ctr_hits", "ctr_accesses") }},
	{"ctrenc.encryptions", "count", func(a *layerAgg) float64 { return a.perPass("encryptions") }},
	{"nvm.bytes_written", "B", func(a *layerAgg) float64 { return a.perPass("nvm_written") }},
	{"nvm.bytes_read", "B", func(a *layerAgg) float64 { return a.perPass("nvm_read") }},

	// crash: campaign reports and the library's perf regions.
	{"crash.points", "count", func(a *layerAgg) float64 { return a.perPass("crash_points") }},
	{"crash.injections", "count", func(a *layerAgg) float64 { return a.perPass("injections") }},
	{"crash.points_per_injection", "ratio", func(a *layerAgg) float64 { return a.ratio("crash_points", "injections") }},
	{"crash.probe_ms", "ms", func(a *layerAgg) float64 { return a.perPass("perf:campaign-probe") / nsPerMS }},
	{"crash.classes_ms", "ms", func(a *layerAgg) float64 { return a.perPass("perf:campaign-classes") / nsPerMS }},
	{"crash.replay_ms", "ms", func(a *layerAgg) float64 { return a.perPass("perf:replay") / nsPerMS }},
	{"crash.recover_ms", "ms", func(a *layerAgg) float64 { return a.perPass("perf:recover") / nsPerMS }},
	{"crash.validate_ms", "ms", func(a *layerAgg) float64 { return a.perPass("perf:verify") / nsPerMS }},
	{"crash.unattributed_ms", "ms", func(a *layerAgg) float64 { return crashUnattributed(a) / nsPerMS }},
	{"crash.build_est_ms", "ms", func(a *layerAgg) float64 { return crashBuildEstimate(a) / nsPerMS }},

	// check/prune, check/verify, check: spans around each call of the
	// static suite, which crash-campaign's calibration runs once.
	{"prune.compute_ms", "ms", func(a *layerAgg) float64 { return a.cal["prune_compute_ns"] / nsPerMS }},
	{"prune.check_ms", "ms", func(a *layerAgg) float64 { return a.cal["prune_check_ns"] / nsPerMS }},
	{"prune.ns_per_op", "ns", func(a *layerAgg) float64 {
		if a.cal["static_ops"] == 0 {
			return 0
		}
		return (a.cal["prune_compute_ns"] + a.cal["prune_check_ns"]) / a.cal["static_ops"]
	}},
	{"prune.classes", "count", func(a *layerAgg) float64 { return a.cal["prune_classes"] }},
	{"verify.ms", "ms", func(a *layerAgg) float64 { return a.cal["verify_ns"] / nsPerMS }},
	{"verify.violations", "count", func(a *layerAgg) float64 { return a.cal["verify_violations"] }},
	{"lint.ms", "ms", func(a *layerAgg) float64 { return a.cal["lint_ns"] / nsPerMS }},
	{"lint.diagnostics", "count", func(a *layerAgg) float64 { return a.cal["lint_diags"] }},

	// runner: cells as the workload's worker pool ran them.
	{"runner.cells", "count", func(a *layerAgg) float64 { return float64(len(a.cells)) / a.passes }},
	{"runner.utilization", "ratio", func(a *layerAgg) float64 { return utilization(a.busy, a.wall, a.workers) }},
	{"runner.cell_p50_ms", "ms", func(a *layerAgg) float64 { return median(a.cells) }},
	{"runner.cell_tail_ms", "ms", func(a *layerAgg) float64 { _, v, _ := tailPercentile(a.cells, 10); return v }},
	{"runner.cell_tail_pct", "%", func(a *layerAgg) float64 { p, _, _ := tailPercentile(a.cells, 10); return p }},

	// Go runtime.
	{"gc.cycles", "count", func(a *layerAgg) float64 { return a.perPass("gc_cycles") }},
	{"gc.cpu_frac", "ratio", func(a *layerAgg) float64 { return a.ratio("gc_cpu_s", "process_cpu_s") }},
	{"gc.pause_ms", "ms", func(a *layerAgg) float64 { return a.perPass("gc_pause_ns") / nsPerMS }},

	{"trace.overhead_frac", "ratio", func(a *layerAgg) float64 { return a.overhead }},

	// replay-grid's cells sized past the L2: their measured-phase L2 hit
	// rate (from the calibration replay) and their share of the traced
	// passes' CPU profile samples.
	{"large.l2_hit_rate", "ratio", func(a *layerAgg) float64 { return a.ratio("large_l2_hits", "large_l2_accesses") }},
	{"large.cpu_frac", "ratio", func(a *layerAgg) float64 { return a.ratio("cpu_large:total", "cpu:total") }},
}

// largeLayers get a cpu_frac within the large cells' samples: the
// layers the replay of a structure past the L2 should spend its time in.
var largeLayers = []string{"sim", "replay", "cache", "memctrl", "ctrenc", "nvm", "mem", "engines", "runtime"}

// cpuFracMetrics returns one cpu_frac metric per known layer, its share
// of the traced passes' CPU profile samples, and one per largeLayers
// entry, its share of the large cells' samples.
func cpuFracMetrics() []layerMetric {
	var out []layerMetric
	for _, l := range knownLayers {
		key := "cpu:" + l
		out = append(out, layerMetric{l + ".cpu_frac", "ratio", func(a *layerAgg) float64 { return a.ratio(key, "cpu:total") }})
	}
	for _, l := range largeLayers {
		key := "cpu_large:" + l
		out = append(out, layerMetric{"large." + l + ".cpu_frac", "ratio", func(a *layerAgg) float64 { return a.ratio(key, "cpu_large:total") }})
	}
	return out
}

// allLayerMetrics is layerTable plus the cpu_frac shares.
func allLayerMetrics() []layerMetric {
	return append(append([]layerMetric{}, layerTable...), cpuFracMetrics()...)
}

// crashUnattributed is the campaign sweeps' worker time outside every
// per-injection perf region (replay, recover, verify): the sweep's wall
// times its worker count, minus the regions' summed time. Machine
// construction, which no region covers, is most of it.
func crashUnattributed(a *layerAgg) float64 {
	sweep := a.perPass("perf:campaign-sweep") * campaignWorkers
	if sweep == 0 {
		return 0
	}
	return sweep - a.perPass("perf:replay") - a.perPass("perf:recover") - a.perPass("perf:verify")
}

// crashBuildEstimate is what the campaigns' machine construction should
// cost: builds per pass times one calibrated build plus attach.
func crashBuildEstimate(a *layerAgg) float64 {
	if a.raw["injections"] == 0 {
		return 0
	}
	per := a.ratio("build_ns", "build_calls") + a.ratio("attach_ns", "attach_calls")
	return a.perPass("builds") * per
}

// layerMetrics derives the per-layer metrics from a traced run's
// untraced and traced passes and the raw sums of its calibration.
func layerMetrics(plain, traced []*pass, calibration map[string]float64) []metric {
	a := &layerAgg{raw: map[string]float64{}, cal: calibration, passes: float64(len(traced))}
	var tracedParts, plainParts [][]time.Duration
	for _, p := range traced {
		for k, v := range p.raw {
			a.raw[k] += v
		}
		for _, c := range p.cells {
			a.cells = append(a.cells, float64(c)/nsPerMS)
		}
		a.busy += p.busy
		a.wall += p.wall
		a.workers = p.workers
		tracedParts = append(tracedParts, p.parts)
	}
	for k, v := range calibration {
		a.raw[k] += v
	}
	for _, p := range plain {
		plainParts = append(plainParts, p.parts)
	}
	if base := sumOfMinima(plainParts); base > 0 {
		a.overhead = float64(sumOfMinima(tracedParts))/float64(base) - 1
	}
	var out []metric
	for _, m := range allLayerMetrics() {
		v := 0.0
		if a.passes > 0 {
			v = m.f(a)
		}
		out = append(out, metric{Name: m.Name, Unit: m.Unit, Value: v})
	}
	return out
}
