// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus micro-benchmarks of the simulator substrate. Each
// figure bench runs the corresponding experiment at the quick scale and
// reports the headline quantity of that figure as a custom metric, so
// `go test -bench=. -benchmem` both exercises and summarizes the full
// reproduction. Figure-regeneration at publication scale is
// `go run ./cmd/experiments -scale full`.
package encnvm_test

import (
	"io"
	"testing"

	"encnvm/internal/config"
	"encnvm/internal/core"
	"encnvm/internal/crash"
	"encnvm/internal/ctrenc"
	"encnvm/internal/exp"
	"encnvm/internal/machine"
	"encnvm/internal/mem"
	"encnvm/internal/probe"
	"encnvm/internal/sim"
	"encnvm/internal/workloads"
)

// BenchmarkTable2Config measures system construction (Table 2): building
// a full simulated machine from the default configuration.
func BenchmarkTable2Config(b *testing.B) {
	w, _ := workloads.ByName("arrayswap")
	traces := crash.BuildTraces(w, workloads.Params{Seed: 1, Items: 64, Ops: 8}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunTraces(config.Default(config.SCA), "arrayswap", traces); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1TxStages measures one undo-log transaction through all
// three stages (Table 1) under SCA.
func BenchmarkTable1TxStages(b *testing.B) {
	w, _ := workloads.ByName("queue")
	p := workloads.Params{Seed: 1, Items: 32, Ops: 1}
	spec, err := machine.ByName("sca")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunWorkload(core.Options{Spec: spec, Workload: w.Name(), Params: p})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkFig4CrashSweep regenerates the Fig. 3/4 demonstration: the
// legacy-software failure count and the SCA zero-failure sweep.
func BenchmarkFig4CrashSweep(b *testing.B) {
	var failures int
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig4(exp.Quick, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		failures = res.LegacyFailures
		if res.SCAFailures != 0 {
			b.Fatalf("SCA failed %d crash points", res.SCAFailures)
		}
	}
	b.ReportMetric(float64(failures), "legacy-failures")
}

// BenchmarkFig8StageTimeline regenerates the Fig. 7/8 stage-write
// timeline and reports the FCA/SCA commit-completion ratio.
func BenchmarkFig8StageTimeline(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig8(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		delta = (res.FCA - res.SCA).Nanoseconds()
	}
	b.ReportMetric(delta, "fca-extra-ns")
}

// BenchmarkFig12SingleCore regenerates Figure 12 and reports SCA's
// average runtime normalized to no-encryption.
func BenchmarkFig12SingleCore(b *testing.B) {
	var sca float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig12(exp.Quick, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		sca = res.Average[config.SCA]
	}
	b.ReportMetric(sca, "sca-vs-noenc")
}

// BenchmarkFig13MultiCore regenerates Figure 13 and reports SCA's
// throughput advantage over FCA at the largest swept core count.
func BenchmarkFig13MultiCore(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig13(exp.Quick, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		adv = res.SCAOverFCA(exp.Quick.Cores[len(exp.Quick.Cores)-1])
	}
	b.ReportMetric(adv, "sca/fca-throughput")
}

// BenchmarkFig14WriteTraffic regenerates Figure 14 and reports SCA's
// average write traffic normalized to no-encryption.
func BenchmarkFig14WriteTraffic(b *testing.B) {
	var sca float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig14(exp.Quick, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		sca = res.Average[config.SCA]
	}
	b.ReportMetric(sca, "sca-traffic-vs-noenc")
}

// BenchmarkFig15CounterCache regenerates Figure 15 and reports the miss
// rate improvement from the smallest to the largest counter cache at the
// largest footprint.
func BenchmarkFig15CounterCache(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig15(exp.Quick, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.FootprintItems) - 1
		n := len(res.CacheSizes)
		delta = res.MissRate[last][0] - res.MissRate[last][n-1]
	}
	b.ReportMetric(delta, "missrate-drop")
}

// BenchmarkFig16TxSize regenerates Figure 16 and reports SCA's overhead
// over Ideal at the largest transaction size (should approach 1.0).
func BenchmarkFig16TxSize(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig16(exp.Quick, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, w := range res.Workloads {
			ov := res.Overhead[w]
			if v := ov[len(ov)-1]; v > worst {
				worst = v
			}
		}
	}
	b.ReportMetric(worst, "sca/ideal-largest-tx")
}

// BenchmarkFig17LatencySweep regenerates Figure 17 and reports SCA's
// speedup over the co-located design at baseline PCM latency.
func BenchmarkFig17LatencySweep(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig17(exp.Quick, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for j, f := range res.Factors {
			if f == 1 {
				speedup = res.ReadSweep[j]
			}
		}
	}
	b.ReportMetric(speedup, "sca/colocated-at-pcm")
}

// --- Ablations: the design choices DESIGN.md calls out.

// BenchmarkAblationCounterQueueDepth sweeps the counter write queue depth
// (the paper's only added hardware, §6.3.7) under FCA, where its pressure
// is maximal.
func BenchmarkAblationCounterQueueDepth(b *testing.B) {
	w, _ := workloads.ByName("hashtable")
	p := workloads.Params{Seed: 3, Items: 256, Ops: 96}
	traces := crash.BuildTraces(w, p, 1)
	for _, depth := range []int{4, 16, 64} {
		b.Run(map[int]string{4: "depth4", 16: "depth16", 64: "depth64"}[depth], func(b *testing.B) {
			var rt sim.Time
			for i := 0; i < b.N; i++ {
				cfg := config.Default(config.FCA)
				cfg.CounterWriteQueue = depth
				res, err := core.RunTraces(cfg, w.Name(), traces)
				if err != nil {
					b.Fatal(err)
				}
				rt = res.Runtime
			}
			b.ReportMetric(rt.Nanoseconds(), "sim-ns")
		})
	}
}

// BenchmarkAblationBankParallelism sweeps PCM bank count, the device-level
// parallelism that write-heavy transactions depend on.
func BenchmarkAblationBankParallelism(b *testing.B) {
	w, _ := workloads.ByName("btree")
	p := workloads.Params{Seed: 3, Items: 256, Ops: 96}
	traces := crash.BuildTraces(w, p, 1)
	for _, banks := range []int{8, 32} {
		b.Run(map[int]string{8: "banks8", 32: "banks32"}[banks], func(b *testing.B) {
			var rt sim.Time
			for i := 0; i < b.N; i++ {
				cfg := config.Default(config.SCA)
				cfg.Banks = banks
				res, err := core.RunTraces(cfg, w.Name(), traces)
				if err != nil {
					b.Fatal(err)
				}
				rt = res.Runtime
			}
			b.ReportMetric(rt.Nanoseconds(), "sim-ns")
		})
	}
}

// --- Substrate micro-benchmarks.

// BenchmarkEncryptLine measures one counter-mode line encryption (the
// functional path behind every simulated write).
func BenchmarkEncryptLine(b *testing.B) {
	e := ctrenc.NewDefault()
	var line mem.Line
	b.SetBytes(mem.LineBytes)
	for i := 0; i < b.N; i++ {
		line = e.Encrypt(line, 0x1000, uint64(i))
	}
	_ = line
}

// BenchmarkSimEngine measures raw event throughput of the discrete-event
// core.
func BenchmarkSimEngine(b *testing.B) {
	eng := sim.New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.Schedule(1, tick)
		}
	}
	eng.Schedule(1, tick)
	b.ResetTimer()
	eng.Run()
}

// BenchmarkSimEngineHandler measures event throughput on the path
// replay runs: a registered handler posted with an argument, with 40
// events in flight (replay-grid's mean queue depth) at spread delays.
func BenchmarkSimEngineHandler(b *testing.B) {
	const inFlight = 40
	eng := sim.New()
	eng.ReserveEvents(inFlight)
	n := 0
	var h sim.Handler
	h = eng.Register(func(arg uint64) {
		n++
		if n <= b.N-inFlight {
			next := arg*6364136223846793005 + 1442695040888963407
			eng.Post(sim.Time(1+next>>33%97), h, next)
		}
	})
	for i := 0; i < inFlight && i < b.N; i++ {
		eng.Post(sim.Time(i), h, uint64(i))
	}
	b.ResetTimer()
	eng.Run()
}

// BenchmarkWorkloadTraceGen measures functional execution + trace
// recording for each workload.
func BenchmarkWorkloadTraceGen(b *testing.B) {
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name(), func(b *testing.B) {
			p := workloads.Params{Seed: 1, Items: 256, Ops: 64}
			for i := 0; i < b.N; i++ {
				crash.BuildTraces(w, p, 1)
			}
		})
	}
}

// BenchmarkReplayPerDesign measures timing replay of one fixed trace under
// each design — the simulator's end-to-end hot path.
func BenchmarkReplayPerDesign(b *testing.B) {
	w, _ := workloads.ByName("btree")
	traces := crash.BuildTraces(w, workloads.Params{Seed: 1, Items: 256, Ops: 64}, 1)
	for _, d := range config.AllDesigns {
		d := d
		b.Run(d.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.RunTraces(config.Default(d), w.Name(), traces); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplayLarge measures replay of a structure sized past the
// one-core 2 MiB L2: arrayswap over 1<<19 8-byte slots (4 MiB), sized as
// perfbench's large cells are. Its writebacks keep the controller's data
// write queue full, so it times the acceptance scan under saturation.
// The trace is built once, outside the timer.
func BenchmarkReplayLarge(b *testing.B) {
	w, _ := workloads.ByName("arrayswap")
	traces := crash.BuildTraces(w, workloads.Params{Seed: 1, Items: 1 << 19, Ops: 128}, 1)
	for _, d := range []config.Design{config.NoEncryption, config.SCA} {
		d := d
		b.Run(d.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.RunTraces(config.Default(d), w.Name(), traces); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplayObserved measures the same replay with the observability
// layer in its three states: detached (the nil-probe hot path every normal
// run pays), sink-attached tracing, and windowed metrics. Compare the
// detached case against BenchmarkReplayPerDesign/SCA to see the cost of
// the nil checks — it must stay in the noise.
func BenchmarkReplayObserved(b *testing.B) {
	w, _ := workloads.ByName("btree")
	traces := crash.BuildTraces(w, workloads.Params{Seed: 1, Items: 256, Ops: 64}, 1)
	run := func(b *testing.B, pb *probe.Probe) {
		m, err := machine.FromConfig(config.Default(config.SCA))
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Run(m, w.Name(), traces, pb)
		if err != nil {
			b.Fatal(err)
		}
		if err := pb.Close(res.System.Eng.Now()); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("detached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, nil)
		}
	})
	b.Run("trace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, probe.New().AttachTrace(io.Discard))
		}
	})
	b.Run("metrics", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, probe.New().AttachMetrics(io.Discard, sim.Microsecond))
		}
	})
}

// BenchmarkCrashCampaign measures the per-op crash-point campaign in
// both modes on one workload: the pruned/exhaustive ns gap is the
// payoff of the static crash-equivalence analysis, and the reported
// injection count is the work it avoided. Allocation figures are
// machine-independent (deterministic workload), so the CI campaign job
// gates them against the checked-in BENCH_pr8.json.
func BenchmarkCrashCampaign(b *testing.B) {
	spec, err := machine.ByName("sca")
	if err != nil {
		b.Fatal(err)
	}
	w, _ := workloads.ByName("queue")
	p := workloads.Params{Seed: 1, Items: 6, Ops: 6, OpsPerTx: 1}
	for _, mode := range []struct {
		name   string
		pruned bool
	}{{"exhaustive", false}, {"pruned", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var rep crash.Report
			for i := 0; i < b.N; i++ {
				run, err := crash.RunCampaign(spec, w, p, crash.CampaignOptions{Pruned: mode.pruned})
				if err != nil {
					b.Fatal(err)
				}
				rep = run.Report
			}
			b.ReportMetric(float64(rep.Simulated), "injections")
			b.ReportMetric(100*rep.PrunedFraction, "pruned_%")
		})
	}
}
