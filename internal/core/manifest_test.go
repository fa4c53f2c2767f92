package core

import (
	"bytes"
	"strings"
	"testing"

	"encnvm/internal/perf"
)

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Schema:   ManifestSchema,
		Design:   "SCA",
		Workload: "btree",
		Cores:    2,
		Counters: map[string]uint64{"nvm.reads": 7},
		TimesPs:  map[string]uint64{"core.fence_wait": 123},
		Latencies: map[string]LatencySummary{
			"nvm.read_latency": {Count: 3, MeanPs: 100, P50Ps: 90, HistLog2: []uint64{0, 1, 2}},
		},
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Design != "SCA" || got.Counters["nvm.reads"] != 7 ||
		got.Latencies["nvm.read_latency"].P50Ps != 90 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestDecodeManifestRejectsWrongSchema(t *testing.T) {
	if _, err := DecodeManifest(strings.NewReader(`{"schema":"bogus/v9"}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

// The optional host block (build provenance) must survive a round trip
// and, when absent, stay absent — a manifest without it is still the
// byte-deterministic default.
func TestManifestHostBlock(t *testing.T) {
	m := &Manifest{
		Schema: ManifestSchema,
		Host: &perf.Build{
			GoVersion:   "go1.24.0",
			Module:      "encnvm",
			VCSRevision: "abc123",
			VCSModified: true,
		},
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Host == nil || *got.Host != *m.Host {
		t.Fatalf("host block round trip: %+v", got.Host)
	}

	var bare bytes.Buffer
	if err := (&Manifest{Schema: ManifestSchema}).Encode(&bare); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(bare.String(), `"host"`) {
		t.Errorf("host block leaked into a manifest that did not set it:\n%s", bare.String())
	}
	// Old-style manifests (no host key) and new ones decode through the
	// same path — statdiff reads both without caring.
	if _, err := DecodeManifest(strings.NewReader(`{"schema":"encnvm/run-manifest/v2"}`)); err != nil {
		t.Errorf("manifest without host rejected: %v", err)
	}
}
