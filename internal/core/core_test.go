package core

import (
	"testing"

	"encnvm/internal/config"
	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/mem"
	"encnvm/internal/persist"
	"encnvm/internal/stats"
	"encnvm/internal/workloads"
)

// persistArena returns core 0's heap base (the workloads' meta line).
func persistArena() mem.Addr {
	return persist.ArenaFor(0, crash.DefaultArena).HeapBase()
}

var tiny = workloads.Params{Seed: 5, Items: 24, Ops: 12, OpsPerTx: 1, ComputeCycles: 50}

// designSpec returns the built-in machine spec of a paper design.
func designSpec(t *testing.T, d config.Design) *machine.Spec {
	t.Helper()
	spec, err := machine.SpecForDesign(d)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestRunWorkloadAllDesigns(t *testing.T) {
	for _, d := range config.AllDesigns {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			res, err := RunWorkload(Options{Spec: designSpec(t, d), Workload: "arrayswap", Params: tiny})
			if err != nil {
				t.Fatal(err)
			}
			if res.Runtime == 0 || res.Transactions != 12 || res.Throughput <= 0 {
				t.Fatalf("bad result: %+v", res)
			}
			if err := VerifyResult(res); err != nil {
				t.Fatalf("end-to-end verification: %v", err)
			}
		})
	}
}

func TestRunWorkloadUnknown(t *testing.T) {
	if _, err := RunWorkload(Options{Spec: designSpec(t, config.SCA), Workload: "bogus"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// A negative size is an error up front, before any trace is built: a
// negative OpsPerTx would otherwise never finish generating ops.
func TestRunWorkloadRejectsNegativeParams(t *testing.T) {
	for _, p := range []workloads.Params{{Items: -1}, {Ops: -1}, {OpsPerTx: -1}} {
		if _, err := RunWorkload(Options{Spec: designSpec(t, config.SCA), Workload: "arrayswap", Params: p}); err == nil {
			t.Errorf("%+v accepted", p)
		}
	}
}

func TestMultiCoreThroughputScales(t *testing.T) {
	// More cores complete more transactions per second under SCA even
	// with contention — the paper's Fig. 13 premise. The workload needs
	// think time between transactions; back-to-back write bursts
	// saturate PCM write bandwidth regardless of core count.
	p := workloads.Params{Seed: 5, Items: 512, Ops: 48, OpsPerTx: 1, ComputeCycles: 4000}
	spec := designSpec(t, config.SCA)
	one, err := RunWorkload(Options{Spec: spec, Workload: "hashtable", Params: p})
	if err != nil {
		t.Fatal(err)
	}
	spec.Cores = 4
	four, err := RunWorkload(Options{Spec: spec, Workload: "hashtable", Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if four.Transactions != 4*one.Transactions {
		t.Fatalf("4-core transactions = %d, want %d", four.Transactions, 4*one.Transactions)
	}
	if four.Throughput <= 1.5*one.Throughput {
		t.Fatalf("4-core throughput %.0f <= 1.5x 1-core %.0f", four.Throughput, one.Throughput)
	}
}

func TestRunTracesSameTraceAcrossDesigns(t *testing.T) {
	w, _ := workloads.ByName("queue")
	traces := crash.BuildTraces(w, tiny, 1)
	var prevTx int
	for i, d := range []config.Design{config.SCA, config.FCA, config.Ideal} {
		res, err := RunTraces(config.Default(d), "queue", traces)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Transactions != prevTx {
			t.Fatalf("transaction counts diverge across designs")
		}
		prevTx = res.Transactions
	}
}

// RunTraces uses its configuration verbatim: the path sensitivity
// sweeps take to fields a spec resolves from defaults.
func TestConfigOverride(t *testing.T) {
	cfg := config.Default(config.SCA).WithCounterCacheSize(128 << 10)
	w, _ := workloads.ByName("arrayswap")
	res, err := RunTraces(cfg, w.Name(), crash.BuildTraces(w, tiny, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Design != config.SCA || res.System.Cfg.CounterCache.SizeBytes != 128<<10 {
		t.Fatalf("ran %v with a %d-byte counter cache", res.Design, res.System.Cfg.CounterCache.SizeBytes)
	}
}

// Spec is the one machine source: it must drive the run end to end,
// and leaving it nil is an error.
func TestSpecOption(t *testing.T) {
	spec, err := machine.ByName("sca")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWorkload(Options{Workload: "arrayswap", Params: tiny, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Design != config.SCA || res.Transactions != 12 {
		t.Fatalf("bad result: %+v", res)
	}
	if err := VerifyResult(res); err != nil {
		t.Fatalf("end-to-end verification: %v", err)
	}
	if _, err := RunWorkload(Options{Workload: "arrayswap", Params: tiny}); err == nil {
		t.Fatal("nil Spec accepted")
	}
}

func TestVerifyResultDetectsCorruption(t *testing.T) {
	// Corrupt the final image behind VerifyResult's back: it must fail.
	res, err := RunWorkload(Options{Spec: designSpec(t, config.NoEncryption), Workload: "queue", Params: tiny})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the queue's count field in NVM while keeping its magic
	// intact, so validation runs and must notice.
	arena := persistArena()
	img := res.System.Dev.Image()
	meta, ok := img.Read(arena)
	if !ok {
		t.Fatal("meta line missing from image")
	}
	meta[24], meta[25] = 0xFF, 0xFF // queue count
	img.Apply(arena, meta, img.LastWrite()+1)
	if err := VerifyResult(res); err == nil {
		t.Fatal("verification passed on a corrupted image")
	}
}

// A result labelled with another workload than the one that ran has no
// published structure of that workload in its image: verification must
// fail rather than validate an empty structure.
func TestVerifyResultRejectsWrongWorkload(t *testing.T) {
	res, err := RunWorkload(Options{Spec: designSpec(t, config.SCA), Workload: "queue", Params: tiny})
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []string{"btree", "hashtable"} {
		res.Workload = other
		err := VerifyResult(res)
		if want := "core 0: no published " + other + " structure in the final image"; err == nil || err.Error() != want {
			t.Errorf("queue run labelled %s: VerifyResult = %v, want %q", other, err, want)
		}
	}
}

func TestVerifyResultWithoutSystem(t *testing.T) {
	if err := VerifyResult(Result{Workload: "queue"}); err == nil {
		t.Fatal("VerifyResult accepted a result with no system")
	}
}

func TestRunWorkloadLegacyMode(t *testing.T) {
	p := tiny
	p.Legacy = true
	res, err := RunWorkload(Options{Spec: designSpec(t, config.NoEncryption), Workload: "arrayswap", Params: p})
	if err != nil {
		t.Fatal(err)
	}
	// Legacy traces have no ccwb ops at all.
	if res.Stats.Count(stats.CCWBs) != 0 {
		t.Fatal("legacy trace issued counter_cache_writeback")
	}
	if err := VerifyResult(res); err != nil {
		t.Fatalf("legacy on unencrypted NVMM must verify: %v", err)
	}
}

func TestOsirisEndToEnd(t *testing.T) {
	res, err := RunWorkload(Options{Spec: designSpec(t, config.Osiris), Workload: "btree", Params: tiny})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyResult(res); err != nil {
		t.Fatalf("Osiris end-to-end verification: %v", err)
	}
}
