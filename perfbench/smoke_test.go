package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinySize runs every workload in well under a second per pass.
var tinySize = size{
	GridItems: 8, GridOps: 4,
	LargeItems: 64, LargeOps: 4,
	CampaignItems: 2, CampaignOps: 2,
	StaticItems: 2, StaticOps: 2,
	CalibrationBuilds: 1,
}

var workloadNames = []string{"replay-grid", "crash-campaign"}

// smoke measures one workload at tinySize for the minimum pass count.
func smoke(t *testing.T, name string, traced bool, pin, calPin string) (*result, string) {
	t.Helper()
	w, err := newWorkload(name, defaultSeed, tinySize)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	res := measure(w, measureOptions{Seconds: time.Millisecond, Traced: traced, Pin: pin, CalPin: calPin, Log: &log})
	return res, log.String()
}

func metricNames(ms []metric) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestSmokeEveryWorkload runs each workload untraced and traced at a
// tiny size: every cell passes its checks, each run reports exactly the
// metrics BENCHMARK.json declares, and crash-campaign's traced run
// measures the static analyses.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := readBenchmarkJSON(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, log := smoke(t, name, false, "", "")
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced: %d of %d cells failed\n%s", res.Failed, res.Attempted, log)
			}
			checkMetrics(t, res.Metrics, spec.EndToEnd)
			for _, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, m.Value)
				}
			}

			traced, log := smoke(t, name, true, "", "")
			if traced.Failed != 0 {
				t.Fatalf("traced: %d of %d cells failed\n%s", traced.Failed, traced.Attempted, log)
			}
			if traced.Digest != res.Digest {
				t.Errorf("traced digest %s differs from untraced %s", traced.Digest, res.Digest)
			}
			checkMetrics(t, traced.Metrics, spec.PerLayer)
			if name == "crash-campaign" {
				values := map[string]float64{}
				for _, m := range traced.Metrics {
					values[m.Name] = m.Value
				}
				for _, m := range []string{"prune.compute_ms", "prune.check_ms", "prune.classes", "verify.ms", "verify.violations", "lint.ms"} {
					if values[m] <= 0 {
						t.Errorf("static suite metric %s = %v, want > 0", m, values[m])
					}
				}
				if traced.CalDigest == "" {
					t.Error("static suite produced no digest lines")
				}
			}
			sum := 0.0
			for _, m := range traced.Metrics {
				if strings.HasSuffix(m.Name, ".cpu_frac") && m.Name != "gc.cpu_frac" && !strings.HasPrefix(m.Name, "large.") {
					sum += m.Value
				}
			}
			if sum < 0.999 || sum > 1.001 {
				t.Errorf("cpu_frac shares sum to %v, want 1", sum)
			}
			var buf bytes.Buffer
			if err := traced.tracer.writeJSON(&buf); err != nil {
				t.Fatal(err)
			}
			var spans []map[string]any
			if err := json.Unmarshal(buf.Bytes(), &spans); err != nil || len(spans) == 0 {
				t.Errorf("span file: %d spans, err %v", len(spans), err)
			}
		})
	}
}

// TestPerturbedDigestFails holds the digest checks: a pinned checked-pass
// or calibration digest that the run does not reproduce is a failed
// cell, and the right one is not.
func TestPerturbedDigestFails(t *testing.T) {
	res, _ := smoke(t, "crash-campaign", true, "", "")
	if res.Failed != 0 {
		t.Fatalf("baseline run failed %d cells", res.Failed)
	}
	perturb := func(d string) string {
		b := []byte(d)
		b[len(b)-1] ^= 1
		return string(b)
	}
	for _, c := range []struct{ pin, calPin string }{
		{perturb(res.Digest), res.CalDigest},
		{res.Digest, perturb(res.CalDigest)},
	} {
		bad, log := smoke(t, "crash-campaign", true, c.pin, c.calPin)
		if bad.Failed != 1 || !strings.Contains(log, "does not match pinned") {
			t.Fatalf("perturbed pin: %d failed cells, log:\n%s", bad.Failed, log)
		}
	}
	good, _ := smoke(t, "crash-campaign", true, res.Digest, res.CalDigest)
	if good.Failed != 0 {
		t.Fatalf("matching pins: %d failed cells", good.Failed)
	}
}

// TestMismatchCountsDriftedCells holds the timed passes to the checked
// pass cell by cell.
func TestMismatchCountsDriftedCells(t *testing.T) {
	want := []string{"a 1", "b 2", "c 3"}
	var log bytes.Buffer
	if n := mismatches(&log, "w", want, []string{"a 1", "b 9", "c 3"}); n != 1 {
		t.Errorf("one drifted cell counted as %d", n)
	}
	if n := mismatches(&log, "w", want, want[:1]); n != 2 {
		t.Errorf("two missing cells counted as %d", n)
	}
	if n := mismatches(&log, "w", want, want); n != 0 {
		t.Errorf("identical passes counted %d", n)
	}
}

func TestCommandLine(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "crash-campaign", "--trace", "2"},
		{"--workload", "crash-campaign", "--seconds", "0"},
		{"--bogus"},
	} {
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if out.Len() != 0 {
		t.Errorf("usage errors printed a result: %q", out.String())
	}
}

type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []declared `json:"end_to_end"`
	PerLayer  []declared `json:"per_layer"`
}

type declared struct {
	Name, Unit string
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	return b
}

// checkMetrics requires exactly the declared metric names and units.
func checkMetrics(t *testing.T, got []metric, want []declared) {
	t.Helper()
	have := metricNames(got)
	if len(have) != len(got) {
		t.Errorf("duplicate metric names in %d metrics", len(got))
	}
	for _, d := range want {
		unit, ok := have[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s declared but not reported", d.Name)
		case unit != d.Unit:
			t.Errorf("metric %s reported in %s, declared in %s", d.Name, unit, d.Unit)
		}
		delete(have, d.Name)
	}
	for name := range have {
		t.Errorf("metric %s reported but not declared", name)
	}
}
