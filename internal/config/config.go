// Package config defines the simulated system configuration and the set of
// evaluated memory-controller designs.
//
// The default values follow Table 2 of the paper: 4GHz out-of-order cores,
// 64KB L1D, 2MB-per-core shared L2, 1MB-per-core shared counter cache,
// 32/64-entry read/data-write queues, a 16-entry counter write queue, and an
// 8GB PCM main memory behind a DDR3-style 533MHz interface with
// tRCD/tCL/tCWD/tCAW/tWTR/tWR = 48/15/13/50/7.5/300 ns and a 40ns
// en/decryption latency.
package config

import (
	"fmt"

	"encnvm/internal/sim"
)

// Design enumerates the evaluated memory-system designs (paper §6.1).
type Design int

const (
	// NoEncryption is an NVMM system without any encryption.
	NoEncryption Design = iota
	// Ideal uses counter-mode encryption but pays no counter-atomicity
	// overhead: counters coalesce in the counter cache and their
	// writebacks are free of ordering constraints. It is an upper bound;
	// it is NOT crash consistent (the crash harness demonstrates this).
	Ideal
	// CoLocated stores the 8B counter next to its 64B data line and moves
	// both with a single access over a widened 72-bit bus. Reads must
	// fetch the counter before decrypting, serializing read + decrypt.
	CoLocated
	// CoLocatedCC is CoLocated plus a counter cache, so decryption of
	// cached counters overlaps the data fetch.
	CoLocatedCC
	// FCA (full counter-atomicity) keeps the 64-bit bus, stores counters
	// in a separate region, and enforces counter-atomicity for every
	// write via the ready-bit write-queue protocol.
	FCA
	// SCA (selective counter-atomicity) is the paper's proposal: only
	// writes annotated CounterAtomic pay the ready-bit protocol; all
	// other data and counter writes may coalesce, buffer, and reorder
	// until a counter_cache_writeback() drains them.
	SCA
	// Osiris is the follow-on direction this paper spawned (Ye et al.,
	// MICRO'18): counters need not persist with their data at all.
	// Spare ECC bits (modeled as a per-line plaintext checksum stored
	// with the data) let recovery try a bounded window of candidate
	// counters; a stop-loss rule writes a line's counter back after at
	// most StopLoss updates, bounding the search. No software
	// primitives are required — legacy persistency code becomes crash
	// consistent on encrypted NVMM.
	Osiris
	// BMT is SCA plus a persisted Bonsai Merkle tree over the counters
	// (Freij et al.): every counter writeback additionally carries the
	// line's ancestor tree-node path and MAC into the counter write
	// queue, so a drained queue leaves the tree verifiable. Recovery
	// re-walks each line to the tree root and detects torn paths.
	BMT
	// SecPM is a write-through metadata scheme (Zuo et al.): the
	// combined counter+MAC line is enqueued with every data write
	// (coalescing in the counter write queue provides the paper's
	// counter write coalescing), so metadata is crash consistent by
	// construction and no ordering primitives or recovery search are
	// needed.
	SecPM
)

// AllDesigns lists every design in the paper's presentation order: the
// paper's six plus the Osiris-style extension. The integrity-tree
// designs (BMT, SecPM) are deliberately excluded — they extend the
// threat model past the paper's figures and are compared separately by
// the integrity experiment.
var AllDesigns = []Design{NoEncryption, Ideal, CoLocated, CoLocatedCC, FCA, SCA, Osiris}

// String returns the design's name as used in the paper's figures.
func (d Design) String() string {
	switch d {
	case NoEncryption:
		return "NoEncryption"
	case Ideal:
		return "Ideal"
	case CoLocated:
		return "Co-located"
	case CoLocatedCC:
		return "Co-located w/ C-Cache"
	case FCA:
		return "FCA"
	case SCA:
		return "SCA"
	case Osiris:
		return "Osiris"
	case BMT:
		return "BMT"
	case SecPM:
		return "SecPM"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// CoLocatesCounters reports whether data and counter travel as one 72B
// access over a widened bus.
func (d Design) CoLocatesCounters() bool { return d == CoLocated || d == CoLocatedCC }

// CacheConfig describes one set-associative cache.
type CacheConfig struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int
	HitTime   sim.Time
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// NVMTiming holds the PCM device timing parameters (Table 2 / ref [57]).
type NVMTiming struct {
	TRCD sim.Time // row activate to column command
	TCL  sim.Time // read column access latency
	TCWD sim.Time // write column write delay
	TCAW sim.Time // column address window / activate window
	TWTR sim.Time // write-to-read turnaround
	TWR  sim.Time // write recovery (PCM cell programming)
}

// ReadAccess returns the bank-occupancy time of one array read.
func (t NVMTiming) ReadAccess() sim.Time { return t.TRCD + t.TCL }

// WriteAccess returns the bank-occupancy time of one array write: write
// column delay plus the long PCM cell-programming (write recovery) time.
// Row activation is folded into TCWD so the read and write paths scale
// independently in the Fig. 17 sensitivity sweep.
func (t NVMTiming) WriteAccess() sim.Time { return t.TCWD + t.TWR }

// Config is the full simulated system configuration.
type Config struct {
	Design Design

	// Cores.
	NumCores int
	CPUFreq  float64  // Hz
	CPUCycle sim.Time // derived: one core cycle

	// Cache hierarchy.
	L1           CacheConfig // private, per core
	L2           CacheConfig // shared
	CounterCache CacheConfig // shared, 8B counters packed 8-per-line

	// Memory controller queues.
	ReadQueueEntries  int
	DataWriteQueue    int
	CounterWriteQueue int

	// NVM device.
	MemoryBytes   uint64
	Banks         int
	BusBytes      int // 8 for a 64-bit bus, 9 for the widened 72-bit bus
	MemFreq       float64
	MemCycle      sim.Time
	Timing        NVMTiming
	ReadLatencyX  float64 // scale factor for sensitivity studies (1.0 = PCM)
	WriteLatencyX float64

	// Encryption engine.
	CryptoLatency sim.Time // OTP generation (AES) latency
	// StopLoss bounds how many times a line may be rewritten before its
	// counter must be written back (Osiris design only); recovery tries
	// at most StopLoss+1 candidate counters per line.
	StopLoss int

	// Software-visible geometry.
	LineBytes    int // 64B cache line
	CounterBytes int // 8B per-line counter
}

// Default returns the Table-2 configuration for the given design with a
// single core.
func Default(d Design) *Config {
	c := &Config{
		Design:   d,
		NumCores: 1,
		CPUFreq:  4e9,

		L1: CacheConfig{Name: "L1D", SizeBytes: 64 << 10, Ways: 8, LineBytes: 64,
			HitTime: 1 * sim.Nanosecond}, // 4 cycles @4GHz
		L2: CacheConfig{Name: "L2", SizeBytes: 2 << 20, Ways: 8, LineBytes: 64,
			HitTime: 3 * sim.Nanosecond}, // 12 cycles @4GHz
		CounterCache: CacheConfig{Name: "Counter$", SizeBytes: 1 << 20, Ways: 16, LineBytes: 64,
			HitTime: 750 * sim.Picosecond}, // 3 cycles @4GHz

		ReadQueueEntries:  32,
		DataWriteQueue:    64,
		CounterWriteQueue: 16,

		MemoryBytes: 8 << 30,
		Banks:       32, // 4 ranks x 8 banks of PCM bank-level parallelism
		BusBytes:    8,
		MemFreq:     533e6,
		Timing: NVMTiming{
			TRCD: 48 * sim.Nanosecond,
			TCL:  15 * sim.Nanosecond,
			TCWD: 13 * sim.Nanosecond,
			TCAW: 50 * sim.Nanosecond,
			TWTR: 7*sim.Nanosecond + 500*sim.Picosecond,
			TWR:  300 * sim.Nanosecond,
		},
		ReadLatencyX:  1.0,
		WriteLatencyX: 1.0,

		CryptoLatency: 40 * sim.Nanosecond,
		StopLoss:      4,

		LineBytes:    64,
		CounterBytes: 8,
	}
	if d.CoLocatesCounters() {
		c.BusBytes = 9 // 72-bit bus carries the 8B counter alongside
	}
	c.derive()
	return c
}

// WithCores returns a copy of c configured for n cores. The L2 and counter
// cache scale with core count (2MB and 1MB per core, per Table 2).
func (c *Config) WithCores(n int) *Config {
	out := *c
	out.NumCores = n
	out.L2.SizeBytes = n * (2 << 20)
	out.CounterCache.SizeBytes = n * (1 << 20)
	out.derive()
	return &out
}

// WithCounterCacheSize returns a copy with the given total counter cache
// size (for the Fig. 15 sensitivity sweep).
func (c *Config) WithCounterCacheSize(bytes int) *Config {
	out := *c
	out.CounterCache.SizeBytes = bytes
	out.derive()
	return &out
}

// WithNVMLatencyScale returns a copy whose NVM read/write array timings are
// scaled by the given factors (for the Fig. 17 sensitivity sweep). A factor
// of 10 means 10x slower; 0.25 means 4x faster.
func (c *Config) WithNVMLatencyScale(read, write float64) *Config {
	out := *c
	out.ReadLatencyX = read
	out.WriteLatencyX = write
	out.derive()
	return &out
}

func scale(t sim.Time, x float64) sim.Time {
	if x == 1.0 {
		return t
	}
	return sim.Time(float64(t) * x)
}

// derive recomputes derived fields and applies latency scaling.
func (c *Config) derive() {
	c.CPUCycle = sim.Time(1e12 / c.CPUFreq)
	c.MemCycle = sim.Time(1e12 / c.MemFreq)
}

// EffectiveTiming returns the NVM timing with sensitivity scaling applied.
// Read scaling affects the read path (tRCD+tCL); write scaling affects the
// write path (tCWD+tWR).
func (c *Config) EffectiveTiming() NVMTiming {
	t := c.Timing
	t.TRCD = scale(t.TRCD, c.ReadLatencyX)
	t.TCL = scale(t.TCL, c.ReadLatencyX)
	t.TCWD = scale(t.TCWD, c.WriteLatencyX)
	t.TWR = scale(t.TWR, c.WriteLatencyX)
	return t
}

// BurstTime returns the bus occupancy of moving n bytes: the bus transfers
// BusBytes per memory cycle edge, double data rate (2 beats per cycle).
func (c *Config) BurstTime(n int) sim.Time {
	beats := (n + c.BusBytes - 1) / c.BusBytes
	// DDR: two beats per memory clock cycle.
	cycles := (beats + 1) / 2
	return sim.Time(cycles) * c.MemCycle
}

// AccessBytes returns the size of one memory access: 64B on the standard
// bus, 72B when counters are co-located.
func (c *Config) AccessBytes() int {
	if c.Design.CoLocatesCounters() {
		return c.LineBytes + c.CounterBytes
	}
	return c.LineBytes
}

// CountersPerLine returns how many 8B counters pack into one counter cache
// line (8 with the default geometry).
func (c *Config) CountersPerLine() int { return c.LineBytes / c.CounterBytes }

// Validate checks internal consistency.
func (c *Config) Validate() error {
	if c.NumCores <= 0 {
		return fmt.Errorf("config: NumCores = %d", c.NumCores)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("config: LineBytes %d not a power of two", c.LineBytes)
	}
	if c.CounterBytes <= 0 || c.LineBytes%c.CounterBytes != 0 {
		return fmt.Errorf("config: CounterBytes %d does not divide LineBytes %d", c.CounterBytes, c.LineBytes)
	}
	for _, cc := range []CacheConfig{c.L1, c.L2, c.CounterCache} {
		if cc.SizeBytes%(cc.Ways*cc.LineBytes) != 0 {
			return fmt.Errorf("config: cache %s size %dB not divisible by ways*line", cc.Name, cc.SizeBytes)
		}
	}
	if c.DataWriteQueue <= 0 || c.CounterWriteQueue <= 0 || c.ReadQueueEntries <= 0 {
		return fmt.Errorf("config: queue sizes must be positive")
	}
	if c.Banks <= 0 {
		return fmt.Errorf("config: Banks = %d", c.Banks)
	}
	if c.BusBytes != 8 && c.BusBytes != 9 {
		return fmt.Errorf("config: BusBytes = %d, want 8 or 9", c.BusBytes)
	}
	if c.Design.CoLocatesCounters() != (c.BusBytes == 9) {
		return fmt.Errorf("config: bus width %dB inconsistent with design %v", c.BusBytes, c.Design)
	}
	return nil
}
