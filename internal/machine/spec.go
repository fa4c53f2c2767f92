// The declarative machine description: a JSON-serializable Spec names the
// two pluggable components (metadata engine, timing backend) and the
// sizing knobs, and resolves to the exact *config.Config the simulator
// runs. Zero-valued fields mean "the Table-2 default for this engine and
// core count", so a two-line file like
//
//	{"engine": "sca", "backend": "dram"}
//
// is a complete machine, and -dump-spec emits the fully-resolved form.

package machine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"encnvm/internal/config"
	"encnvm/internal/machine/engines"
	"encnvm/internal/nvm"
	"encnvm/internal/sim"
)

// Spec declares one machine. Engine and Backend are component names
// (engines.Names / nvm.BackendNames); every other field overrides the
// engine's Table-2 default when non-zero.
type Spec struct {
	// Name labels the machine (registry key, manifest tag). Defaults to
	// the engine name.
	Name    string `json:"name,omitempty"`
	Engine  string `json:"engine"`
	Backend string `json:"backend,omitempty"` // default "pcm"

	Cores int `json:"cores,omitempty"` // default 1

	L1Bytes           int `json:"l1_bytes,omitempty"`
	L2Bytes           int `json:"l2_bytes,omitempty"`
	CounterCacheBytes int `json:"counter_cache_bytes,omitempty"`

	ReadQueueEntries  int `json:"read_queue_entries,omitempty"`
	DataWriteQueue    int `json:"data_write_queue,omitempty"`
	CounterWriteQueue int `json:"counter_write_queue,omitempty"`

	Banks       int    `json:"banks,omitempty"`
	MemoryBytes uint64 `json:"memory_bytes,omitempty"`

	CryptoLatencyPs uint64  `json:"crypto_latency_ps,omitempty"`
	StopLoss        int     `json:"stop_loss,omitempty"`
	ReadLatencyX    float64 `json:"read_latency_x,omitempty"`
	WriteLatencyX   float64 `json:"write_latency_x,omitempty"`
}

// Validate checks the spec's component names and value ranges. It does
// not resolve defaults; Config additionally runs the full geometry
// validation on the resolved configuration.
func (s *Spec) Validate() error {
	if s.Engine == "" {
		return fmt.Errorf("machine: spec %q has no engine", s.Name)
	}
	if _, err := engines.ByName(s.Engine); err != nil {
		return fmt.Errorf("machine: spec %q: %w", s.Name, err)
	}
	if s.Backend != "" {
		if _, err := nvm.BackendByName(s.Backend); err != nil {
			return fmt.Errorf("machine: spec %q: %w", s.Name, err)
		}
	}
	if s.Cores < 0 {
		return fmt.Errorf("machine: spec %q: cores = %d", s.Name, s.Cores)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"l1_bytes", s.L1Bytes}, {"l2_bytes", s.L2Bytes},
		{"counter_cache_bytes", s.CounterCacheBytes},
		{"read_queue_entries", s.ReadQueueEntries},
		{"data_write_queue", s.DataWriteQueue},
		{"counter_write_queue", s.CounterWriteQueue},
		{"banks", s.Banks}, {"stop_loss", s.StopLoss},
	} {
		if f.v < 0 {
			return fmt.Errorf("machine: spec %q: %s = %d", s.Name, f.name, f.v)
		}
	}
	if s.ReadLatencyX < 0 || s.WriteLatencyX < 0 {
		return fmt.Errorf("machine: spec %q: latency scale factors must be >= 0 (%g, %g)",
			s.Name, s.ReadLatencyX, s.WriteLatencyX)
	}
	return nil
}

// Resolved returns a copy with every zero field filled in from the
// engine's Table-2 default at the spec's core count — the canonical,
// fully-specified form that -dump-spec emits and manifests embed.
// Resolving an already-resolved spec is the identity.
func (s *Spec) Resolved() (*Spec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	meta, _ := engines.ByName(s.Engine)
	out := *s
	if out.Name == "" {
		out.Name = out.Engine
	}
	if out.Backend == "" {
		out.Backend = nvm.PCM.Name()
	}
	if out.Cores == 0 {
		out.Cores = 1
	}
	def := config.Default(meta.Design).WithCores(out.Cores)
	if out.L1Bytes == 0 {
		out.L1Bytes = def.L1.SizeBytes
	}
	if out.L2Bytes == 0 {
		out.L2Bytes = def.L2.SizeBytes
	}
	if out.CounterCacheBytes == 0 {
		out.CounterCacheBytes = def.CounterCache.SizeBytes
	}
	if out.ReadQueueEntries == 0 {
		out.ReadQueueEntries = def.ReadQueueEntries
	}
	if out.DataWriteQueue == 0 {
		out.DataWriteQueue = def.DataWriteQueue
	}
	if out.CounterWriteQueue == 0 {
		out.CounterWriteQueue = def.CounterWriteQueue
	}
	if out.Banks == 0 {
		out.Banks = def.Banks
	}
	if out.MemoryBytes == 0 {
		out.MemoryBytes = def.MemoryBytes
	}
	if out.CryptoLatencyPs == 0 {
		out.CryptoLatencyPs = uint64(def.CryptoLatency)
	}
	if out.StopLoss == 0 {
		out.StopLoss = def.StopLoss
	}
	if out.ReadLatencyX == 0 {
		out.ReadLatencyX = def.ReadLatencyX
	}
	if out.WriteLatencyX == 0 {
		out.WriteLatencyX = def.WriteLatencyX
	}
	return &out, nil
}

// Config resolves the spec to the exact configuration the simulator runs,
// validated end to end.
func (s *Spec) Config() (*config.Config, error) {
	r, err := s.Resolved()
	if err != nil {
		return nil, err
	}
	meta, _ := engines.ByName(r.Engine)
	cfg := config.Default(meta.Design).WithCores(r.Cores)
	cfg.L1.SizeBytes = r.L1Bytes
	cfg.L2.SizeBytes = r.L2Bytes
	cfg.CounterCache.SizeBytes = r.CounterCacheBytes
	cfg.ReadQueueEntries = r.ReadQueueEntries
	cfg.DataWriteQueue = r.DataWriteQueue
	cfg.CounterWriteQueue = r.CounterWriteQueue
	cfg.Banks = r.Banks
	cfg.MemoryBytes = r.MemoryBytes
	cfg.CryptoLatency = sim.Time(r.CryptoLatencyPs)
	cfg.StopLoss = r.StopLoss
	cfg.ReadLatencyX = r.ReadLatencyX
	cfg.WriteLatencyX = r.WriteLatencyX
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("machine: spec %q resolves to invalid config: %w", r.Name, err)
	}
	return cfg, nil
}

// SpecFromConfig mirrors a configuration back into its fully-resolved
// spec (the spec sweep-mutated configs embed in manifests). The backend
// is the one the device was actually built over when known; callers on
// the config-only path pass nvm.PCM.
func SpecFromConfig(cfg *config.Config, backend nvm.Backend) (*Spec, error) {
	meta, err := engines.ForDesign(cfg.Design)
	if err != nil {
		return nil, err
	}
	if backend == nil {
		backend = nvm.PCM
	}
	return &Spec{
		Name:              meta.Name,
		Engine:            meta.Name,
		Backend:           backend.Name(),
		Cores:             cfg.NumCores,
		L1Bytes:           cfg.L1.SizeBytes,
		L2Bytes:           cfg.L2.SizeBytes,
		CounterCacheBytes: cfg.CounterCache.SizeBytes,
		ReadQueueEntries:  cfg.ReadQueueEntries,
		DataWriteQueue:    cfg.DataWriteQueue,
		CounterWriteQueue: cfg.CounterWriteQueue,
		Banks:             cfg.Banks,
		MemoryBytes:       cfg.MemoryBytes,
		CryptoLatencyPs:   uint64(cfg.CryptoLatency),
		StopLoss:          cfg.StopLoss,
		ReadLatencyX:      cfg.ReadLatencyX,
		WriteLatencyX:     cfg.WriteLatencyX,
	}, nil
}

// Encode writes the spec as indented JSON with a trailing newline —
// deterministic, so dump → load → dump is byte-identical.
func (s *Spec) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("machine: encoding spec: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// DecodeSpec reads one spec document. Unknown fields are rejected — a
// typoed knob must fail loudly, not silently fall back to a default. The
// decoded spec is validated; DecodeSpec never panics on any input.
func DecodeSpec(r io.Reader) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("machine: decoding spec: %w", err)
	}
	// Trailing garbage after the document is a malformed file.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("machine: trailing data after spec document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// DecodeSpecBytes is DecodeSpec over an in-memory document.
func DecodeSpecBytes(data []byte) (*Spec, error) {
	return DecodeSpec(bytes.NewReader(data))
}
