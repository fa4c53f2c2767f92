package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"encnvm/internal/config"
	"encnvm/internal/probe"
	"encnvm/internal/sim"
	"encnvm/internal/workloads"
)

// observedRun runs one small SCA/btree simulation with all probe sinks
// attached and returns the three output documents.
func observedRun(t *testing.T, p workloads.Params) (res Result, trace, metrics, manifest []byte) {
	t.Helper()
	var traceBuf, metricsBuf bytes.Buffer
	pb := probe.New().
		AttachTrace(&traceBuf).
		AttachMetrics(&metricsBuf, sim.Microsecond)
	res, err := RunWorkload(Options{
		Spec: designSpec(t, config.SCA), Workload: "btree", Params: p, Probe: pb,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Close(res.System.Eng.Now()); err != nil {
		t.Fatal(err)
	}
	var manifestBuf bytes.Buffer
	if err := BuildManifest(res, p.WithDefaults()).Encode(&manifestBuf); err != nil {
		t.Fatal(err)
	}
	return res, traceBuf.Bytes(), metricsBuf.Bytes(), manifestBuf.Bytes()
}

// Identical seed + config must produce byte-identical observability output
// — the property that makes traces and manifests diffable.
func TestObservedRunDeterministic(t *testing.T) {
	_, trace1, metrics1, manifest1 := observedRun(t, tiny)
	_, trace2, metrics2, manifest2 := observedRun(t, tiny)
	if !bytes.Equal(trace1, trace2) {
		t.Error("trace output differs between identical runs")
	}
	if !bytes.Equal(metrics1, metrics2) {
		t.Error("metrics output differs between identical runs")
	}
	if !bytes.Equal(manifest1, manifest2) {
		t.Error("manifest output differs between identical runs")
	}
	if len(trace1) == 0 || len(metrics1) == 0 || len(manifest1) == 0 {
		t.Error("an output document is empty")
	}
}

// Attaching the probe must not perturb the simulation: every stats counter
// and the runtime must match a probe-free run of the same workload.
func TestProbeDoesNotPerturbSimulation(t *testing.T) {
	plain, err := RunWorkload(Options{Spec: designSpec(t, config.SCA), Workload: "btree", Params: tiny})
	if err != nil {
		t.Fatal(err)
	}
	observed, _, _, _ := observedRun(t, tiny)
	if plain.Runtime != observed.Runtime || plain.TotalRuntime != observed.TotalRuntime {
		t.Fatalf("runtime changed: %v/%v vs %v/%v",
			plain.Runtime, plain.TotalRuntime, observed.Runtime, observed.TotalRuntime)
	}
	pc, oc := plain.Stats.Counters(), observed.Stats.Counters()
	if len(pc) != len(oc) {
		t.Fatalf("counter sets differ: %d vs %d", len(pc), len(oc))
	}
	for k, v := range pc {
		if oc[k] != v {
			t.Errorf("counter %s: %d (plain) vs %d (observed)", k, v, oc[k])
		}
	}
}

// A probe with no sinks attached must emit nothing and change nothing.
func TestSinklessProbeIsInert(t *testing.T) {
	pb := probe.New()
	res, err := RunWorkload(Options{
		Spec: designSpec(t, config.SCA), Workload: "btree", Params: tiny, Probe: pb,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pb.Trace() != nil || pb.Metrics() != nil {
		t.Fatal("sinkless probe reports sinks")
	}
	if err := pb.Close(res.System.Eng.Now()); err != nil {
		t.Fatal(err)
	}
	plain, err := RunWorkload(Options{Spec: designSpec(t, config.SCA), Workload: "btree", Params: tiny})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Runtime != res.Runtime || plain.BytesWritten != res.BytesWritten {
		t.Fatalf("sinkless probe perturbed the run: %+v vs %+v", plain.Runtime, res.Runtime)
	}
}

type traceEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Args map[string]interface{} `json:"args"`
}

// The timeline must be valid JSON and contain the tracks the ISSUE's
// acceptance criteria name: per-bank busy events, named bank threads, at
// least one complete transaction span with its stage sub-spans, and the
// queue-depth counter track.
func TestTraceContent(t *testing.T) {
	_, traceOut, metricsOut, _ := observedRun(t, tiny)
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceOut, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	bankThreads, bankBusy, counters := 0, 0, 0
	spanBegins, spanEnds := 0, 0
	stages := map[string]int{}
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name" && ev.Pid == probe.PidNVM:
			bankThreads++
		case ev.Ph == "X" && ev.Pid == probe.PidNVM && ev.Tid != probe.TidBus:
			bankBusy++
		case ev.Ph == "C":
			counters++
		case ev.Ph == "B" && ev.Pid == probe.PidSoftware:
			spanBegins++
			stages[ev.Name]++
		case ev.Ph == "E" && ev.Pid == probe.PidSoftware:
			spanEnds++
		}
	}
	if bankThreads < 3 { // bus + at least one rd/wr bank pair
		t.Errorf("only %d NVM thread names", bankThreads)
	}
	if bankBusy == 0 {
		t.Error("no per-bank busy events")
	}
	if counters == 0 {
		t.Error("no queue-depth counter events")
	}
	if stages["tx"] == 0 {
		t.Error("no transaction spans")
	}
	for _, stage := range []string{"log", "log-seal", "mutate", "commit-switch"} {
		if stages[stage] == 0 {
			t.Errorf("no %q stage spans", stage)
		}
	}
	if spanBegins != spanEnds {
		t.Errorf("unbalanced spans: %d begins, %d ends", spanBegins, spanEnds)
	}

	// Every metrics row must be a standalone JSON object.
	lines := strings.Split(strings.TrimSpace(string(metricsOut)), "\n")
	if len(lines) == 0 {
		t.Fatal("no metrics rows")
	}
	for _, ln := range lines {
		var row map[string]interface{}
		if err := json.Unmarshal([]byte(ln), &row); err != nil {
			t.Fatalf("metrics row %q: %v", ln, err)
		}
		if _, ok := row["t_ps"]; !ok {
			t.Fatalf("metrics row missing t_ps: %s", ln)
		}
	}
}

// The manifest must decode, carry the schema tag, and agree with the run's
// stats counters.
func TestManifestContent(t *testing.T) {
	res, _, _, manifestOut := observedRun(t, tiny)
	m, err := DecodeManifest(bytes.NewReader(manifestOut))
	if err != nil {
		t.Fatal(err)
	}
	if m.Design != "SCA" || m.Workload != "btree" || m.Params.Seed != tiny.Seed {
		t.Fatalf("manifest header: %+v", m)
	}
	if m.Results.Transactions != res.Transactions ||
		m.Results.RuntimePs != uint64(res.Runtime) {
		t.Fatalf("manifest results disagree with run: %+v", m.Results)
	}
	if m.Counters["sw.transactions"] != uint64(res.Transactions) {
		t.Fatalf("manifest counters disagree: %v", m.Counters)
	}
	lat, ok := m.Latencies["nvm.read_latency"]
	if !ok || lat.Count == 0 || lat.P50Ps == 0 || lat.P50Ps > lat.P99Ps {
		t.Fatalf("read latency summary: %+v", lat)
	}
	if lat.MinPs == 0 {
		t.Fatal("latency min is zero — lazy-init regression")
	}
}
