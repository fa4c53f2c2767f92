package nvm

import (
	"fmt"

	"encnvm/internal/config"
	"encnvm/internal/sim"
)

// Backend is the timed-device seam of the machine architecture
// (re-exported as machine.Backend): it names a memory technology and
// supplies its array timing for a given configuration. The bank/bus
// structure, queueing, and functional image are technology-independent
// and stay in Device; only the timing numbers vary. The Config's
// ReadLatencyX/WriteLatencyX sensitivity knobs apply to every backend,
// so the Fig. 17 sweep composes with any technology.
type Backend interface {
	// Name is the registry/spec name ("pcm", "dram").
	Name() string
	// Timing returns the array timing with sensitivity scaling applied.
	Timing(cfg *config.Config) config.NVMTiming
}

// pcm is the paper's Table-2 PCM device: slow asymmetric writes
// (tCWD+tWR ≈ 313ns cell programming) behind a DDR3-style interface.
type pcm struct{}

func (pcm) Name() string { return "pcm" }

func (pcm) Timing(cfg *config.Config) config.NVMTiming { return cfg.EffectiveTiming() }

// dram is a DDR3-1066-like volatile-DRAM timing set behind the same
// 533MHz interface — added to prove the backend seam: symmetric ~14ns
// array accesses instead of PCM's 300ns write recovery. (A DRAM main
// memory is of course not persistent; the crash harness still runs, and
// models a hypothetical battery-backed module.)
type dram struct{}

func (dram) Name() string { return "dram" }

func (dram) Timing(cfg *config.Config) config.NVMTiming {
	t := config.NVMTiming{
		TRCD: 13750 * sim.Picosecond,
		TCL:  13750 * sim.Picosecond,
		TCWD: 6500 * sim.Picosecond,
		TCAW: 50 * sim.Nanosecond,
		TWTR: 7*sim.Nanosecond + 500*sim.Picosecond,
		TWR:  15 * sim.Nanosecond,
	}
	t.TRCD = scaleTime(t.TRCD, cfg.ReadLatencyX)
	t.TCL = scaleTime(t.TCL, cfg.ReadLatencyX)
	t.TCWD = scaleTime(t.TCWD, cfg.WriteLatencyX)
	t.TWR = scaleTime(t.TWR, cfg.WriteLatencyX)
	return t
}

func scaleTime(t sim.Time, x float64) sim.Time {
	if x == 1.0 {
		return t
	}
	return sim.Time(float64(t) * x)
}

// PCM and DRAM are the built-in backends.
var (
	PCM  Backend = pcm{}
	DRAM Backend = dram{}
)

// backends lists the built-in backends in name order.
var backends = []Backend{DRAM, PCM}

// BackendByName returns the built-in backend with the given name.
func BackendByName(name string) (Backend, error) {
	for _, b := range backends {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("nvm: unknown backend %q (valid: %v)", name, BackendNames())
}

// BackendNames lists the built-in backend names, sorted.
func BackendNames() []string {
	out := make([]string, len(backends))
	for i, b := range backends {
		out[i] = b.Name()
	}
	return out
}
