// The run manifest: one machine-readable JSON document per simulation run,
// capturing what ran (design, workload, parameters, configuration) and what
// happened (runtime, throughput, every stats counter and time bucket, and
// latency distributions with log₂ histograms and p50/p95/p99). Manifests
// are the diffable unit of the repository's performance trajectory: two of
// them feed cmd/statdiff, and CI archives one per run as BENCH_*.json.
// BuildManifest flattens a completed run into one; cmd/nvmsim writes it.
//
// Encoding is deterministic: encoding/json sorts map keys, struct fields
// are fixed, and all values derive from the deterministic simulation.

package core

import (
	"encoding/json"
	"fmt"
	"io"

	"encnvm/internal/machine"
	"encnvm/internal/perf"
	"encnvm/internal/stats"
	"encnvm/internal/workloads"
)

// ManifestSchema identifies the manifest document format. v2 added the
// Machine field: the fully-resolved machine spec (engine, backend,
// sizing) the run was built from.
const ManifestSchema = "encnvm/run-manifest/v2"

// ManifestSchemaV1 is the previous format, still accepted on decode; a
// v1 document simply has no Machine field.
const ManifestSchemaV1 = "encnvm/run-manifest/v1"

// Manifest is the end-of-run document.
type Manifest struct {
	Schema   string         `json:"schema"`
	Design   string         `json:"design"`
	Workload string         `json:"workload"`
	Cores    int            `json:"cores"`
	Params   ManifestParams `json:"params"`
	// Machine is the fully-resolved machine spec (schema v2+).
	Machine *machine.Spec  `json:"machine,omitempty"`
	Config  ManifestConfig `json:"config"`
	Results ManifestResult `json:"results"`
	// Host, when present, records which binary produced the manifest
	// (go version, module version, VCS revision). It is provenance, not
	// measurement: constant for a given build, so byte-determinism
	// across runs of one binary still holds, and statdiff decodes but
	// never compares it.
	Host *perf.Build `json:"host,omitempty"`
	// Counters holds every stats event counter by name.
	Counters map[string]uint64 `json:"counters"`
	// TimesPs holds every accumulated stats time bucket, in picoseconds.
	TimesPs map[string]uint64 `json:"times_ps"`
	// Latencies holds every latency distribution summary, in picoseconds.
	Latencies map[string]LatencySummary `json:"latencies_ps"`
}

// ManifestParams records the workload parameters, including the RNG seed
// that (with the config) fully determines the run.
type ManifestParams struct {
	Seed          int64  `json:"seed"`
	Items         int    `json:"items"`
	Ops           int    `json:"ops"`
	OpsPerTx      int    `json:"ops_per_tx"`
	ComputeCycles uint32 `json:"compute_cycles"`
	Legacy        bool   `json:"legacy"`
	TxMode        string `json:"tx_mode"`
}

// ManifestConfig records the simulated hardware configuration knobs that
// distinguish runs.
type ManifestConfig struct {
	Banks             int     `json:"banks"`
	BusBytes          int     `json:"bus_bytes"`
	ReadQueueEntries  int     `json:"read_queue_entries"`
	DataWriteQueue    int     `json:"data_write_queue"`
	CounterWriteQueue int     `json:"counter_write_queue"`
	L1Bytes           int     `json:"l1_bytes"`
	L2Bytes           int     `json:"l2_bytes"`
	CounterCacheBytes int     `json:"counter_cache_bytes"`
	CryptoLatencyPs   uint64  `json:"crypto_latency_ps"`
	MemoryBytes       uint64  `json:"memory_bytes"`
	StopLoss          int     `json:"stop_loss"`
	ReadLatencyX      float64 `json:"read_latency_x"`
	WriteLatencyX     float64 `json:"write_latency_x"`
}

// ManifestResult records the headline measurements.
type ManifestResult struct {
	RuntimePs          uint64  `json:"runtime_ps"`
	TotalRuntimePs     uint64  `json:"total_runtime_ps"`
	Transactions       int     `json:"transactions"`
	ThroughputTxPerSec float64 `json:"throughput_tx_per_sec"`
	BytesWritten       uint64  `json:"bytes_written"`
	SimEvents          uint64  `json:"sim_events"`
	WearLines          int     `json:"wear_lines"`
	WearTotalWrites    uint64  `json:"wear_total_writes"`
	WearHottestLine    uint64  `json:"wear_hottest_line"`
}

// LatencySummary is one latency distribution: moments, quantiles, and the
// log₂ histogram (bucket i counts samples whose value has bit length i,
// i.e. lies in [2^(i-1), 2^i); trailing zero buckets trimmed).
type LatencySummary struct {
	Count    uint64   `json:"count"`
	MeanPs   uint64   `json:"mean"`
	MinPs    uint64   `json:"min"`
	MaxPs    uint64   `json:"max"`
	P50Ps    uint64   `json:"p50"`
	P95Ps    uint64   `json:"p95"`
	P99Ps    uint64   `json:"p99"`
	HistLog2 []uint64 `json:"hist_log2,omitempty"`
}

// BuildManifest flattens a completed run into its manifest document. p is
// the workload parameterization the run was built from (pass the same
// value given to RunWorkload, after WithDefaults if applied manually).
func BuildManifest(res Result, p workloads.Params) *Manifest {
	sys := res.System
	cfg := sys.Cfg
	var spec *machine.Spec
	if s := sys.Spec; s != nil {
		if r, err := s.Resolved(); err == nil {
			spec = r
		}
	}
	m := &Manifest{
		Schema:   ManifestSchema,
		Design:   res.Design.String(),
		Workload: res.Workload,
		Cores:    res.Cores,
		Machine:  spec,
		Params: ManifestParams{
			Seed:          p.Seed,
			Items:         p.Items,
			Ops:           p.Ops,
			OpsPerTx:      p.OpsPerTx,
			ComputeCycles: p.ComputeCycles,
			Legacy:        p.Legacy,
			TxMode:        p.TxMode.String(),
		},
		Config: ManifestConfig{
			Banks:             cfg.Banks,
			BusBytes:          cfg.BusBytes,
			ReadQueueEntries:  cfg.ReadQueueEntries,
			DataWriteQueue:    cfg.DataWriteQueue,
			CounterWriteQueue: cfg.CounterWriteQueue,
			L1Bytes:           cfg.L1.SizeBytes,
			L2Bytes:           cfg.L2.SizeBytes,
			CounterCacheBytes: cfg.CounterCache.SizeBytes,
			CryptoLatencyPs:   uint64(cfg.CryptoLatency),
			MemoryBytes:       cfg.MemoryBytes,
			StopLoss:          cfg.StopLoss,
			ReadLatencyX:      cfg.ReadLatencyX,
			WriteLatencyX:     cfg.WriteLatencyX,
		},
		Results: ManifestResult{
			RuntimePs:          uint64(res.Runtime),
			TotalRuntimePs:     uint64(res.TotalRuntime),
			Transactions:       res.Transactions,
			ThroughputTxPerSec: res.Throughput,
			BytesWritten:       res.BytesWritten,
			SimEvents:          sys.Eng.Steps(),
		},
		Counters:  res.Stats.Counters(),
		TimesPs:   make(map[string]uint64),
		Latencies: make(map[string]LatencySummary),
	}
	lines, total, hottest := sys.Dev.Wear()
	m.Results.WearLines = lines
	m.Results.WearTotalWrites = total
	m.Results.WearHottestLine = hottest
	for name, t := range res.Stats.Times() {
		m.TimesPs[name] = uint64(t)
	}
	for name, l := range res.Stats.Latencies() {
		m.Latencies[name] = summarize(l)
	}
	return m
}

func summarize(l *stats.Latency) LatencySummary {
	return LatencySummary{
		Count:    l.Count(),
		MeanPs:   uint64(l.Mean()),
		MinPs:    uint64(l.Min()),
		MaxPs:    uint64(l.Max()),
		P50Ps:    uint64(l.Quantile(0.50)),
		P95Ps:    uint64(l.Quantile(0.95)),
		P99Ps:    uint64(l.Quantile(0.99)),
		HistLog2: l.HistogramLog2(),
	}
}

// Encode writes the manifest as indented JSON with a trailing newline.
func (m *Manifest) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("core: encoding manifest: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// DecodeManifest reads one manifest document and checks its schema tag.
func DecodeManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(r)
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("core: decoding manifest: %w", err)
	}
	if m.Schema != ManifestSchema && m.Schema != ManifestSchemaV1 {
		return nil, fmt.Errorf("core: unknown manifest schema %q (want %q or %q)",
			m.Schema, ManifestSchema, ManifestSchemaV1)
	}
	return &m, nil
}
