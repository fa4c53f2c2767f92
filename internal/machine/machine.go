// Package machine is the component architecture of the simulator: two
// pluggable components — a metadata engine (a row of the engines table:
// counter placement, encryption, the atomicity protocol, recovery) and a
// Backend (the timed device) — plus a builder that assembles a full
// machine (simulation engine, device, memory controller, shared L2)
// from a declarative, JSON-serializable Spec. The config.Design enum the
// figures are written in terms of is sugar over the registered spec
// table (Register/ByName).
//
// The components live where their consumers sit: the engine table in
// the leaf subpackage machine/engines (so internal/memctrl can depend on
// it without a cycle) and the Backend interface in internal/nvm, which
// this package re-exports.
package machine

import (
	"encnvm/internal/cache"
	"encnvm/internal/config"
	"encnvm/internal/machine/engines"
	"encnvm/internal/memctrl"
	"encnvm/internal/nvm"
	"encnvm/internal/sim"
	"encnvm/internal/stats"
)

// Backend is the timed-device component: a memory technology's array
// timing behind the shared bank/bus structure.
type Backend = nvm.Backend

// RecoveryCost quantifies a metadata engine's post-crash recovery work.
type RecoveryCost = engines.RecoveryCost

// Machine is one assembled simulated machine, ready for a replay to
// attach cores and run.
type Machine struct {
	Spec *Spec          // fully-resolved description (manifest embedding)
	Cfg  *config.Config // the exact configuration the components share

	Meta engines.Engine
	Back Backend

	Eng *sim.Engine
	St  *stats.Stats
	Dev *nvm.Device
	MC  *memctrl.Controller
	L2  *cache.Cache
}

// Build assembles a machine from a spec: resolve the component names,
// derive the configuration, and wire engine → device → controller.
func Build(s *Spec) (*Machine, error) {
	r, err := s.Resolved()
	if err != nil {
		return nil, err
	}
	cfg, err := r.Config()
	if err != nil {
		return nil, err
	}
	meta, _ := engines.ByName(r.Engine)
	back, _ := nvm.BackendByName(r.Backend)
	return assemble(r, cfg, meta, back), nil
}

// FromConfig assembles a machine directly from a configuration — the
// compatibility path for the sensitivity sweeps, which mutate Config
// fields (timing scale, queue depths) that a spec round-trip would not
// necessarily preserve. The config is used verbatim; the engine is the
// one implementing cfg.Design and the backend is PCM.
func FromConfig(cfg *config.Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	meta, err := engines.ForDesign(cfg.Design)
	if err != nil {
		return nil, err
	}
	spec, err := SpecFromConfig(cfg, nvm.PCM)
	if err != nil {
		return nil, err
	}
	return assemble(spec, cfg, meta, nvm.PCM), nil
}

// assemble wires the components. cfg is shared, not copied: the caller
// owns any cloning (sweeps clone per cell before building).
func assemble(spec *Spec, cfg *config.Config, meta engines.Engine, back Backend) *Machine {
	eng := sim.New()
	st := stats.New()
	dev := nvm.NewWithBackend(eng, cfg, back, st)
	return &Machine{
		Spec: spec,
		Cfg:  cfg,
		Meta: meta,
		Back: back,
		Eng:  eng,
		St:   st,
		Dev:  dev,
		MC:   memctrl.New(eng, cfg, meta, dev, st),
		L2:   cache.New(cfg.L2),
	}
}
