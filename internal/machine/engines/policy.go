package engines

import "encnvm/internal/config"

// Policy is the compiled, flat form of an Engine's static predicates:
// every per-design answer that does not depend on per-write state,
// resolved once at machine build. The memory controller reads Policy
// fields in its per-write path instead of making interface calls — the
// devirtualization half of ROADMAP item 2. The dynamic hooks
// (WriteIsCounterAtomic, Recover) stay on the Engine interface: they
// take per-write or post-crash inputs and are not foldable.
type Policy struct {
	// Name is the source engine's registry name, for diagnostics.
	Name string

	Encrypted             bool
	UsesCounterCache      bool
	CoLocatesCounters     bool
	SeparateCounterWrites bool

	FIFOAcceptance  bool
	PairsEveryWrite bool

	CounterWritebackEmits  bool
	CounterWritebackBlocks bool

	// StopLossLimit is Engine.StopLossLimit resolved against the build
	// config; negative disables the stop-loss rule.
	StopLossLimit int

	IntegrityProtected bool
	// TreePathWrites is Engine.TreePathWrites resolved against the
	// build config: extra metadata line writes per counter write.
	TreePathWrites       int
	TreePathOrdered      bool
	MetadataWriteThrough bool

	CrashConsistent bool
}

// Compile resolves an engine's static predicates against a build
// config. The controller calls it once in New; the result is immutable
// and safe to copy.
func Compile(e Engine, cfg *config.Config) Policy {
	return Policy{
		Name:                   e.Name(),
		Encrypted:              e.Encrypted(),
		UsesCounterCache:       e.UsesCounterCache(),
		CoLocatesCounters:      e.CoLocatesCounters(),
		SeparateCounterWrites:  e.SeparateCounterWrites(),
		FIFOAcceptance:         e.FIFOAcceptance(),
		PairsEveryWrite:        e.PairsEveryWrite(),
		CounterWritebackEmits:  e.CounterWritebackEmits(),
		CounterWritebackBlocks: e.CounterWritebackBlocks(),
		StopLossLimit:          e.StopLossLimit(cfg),
		IntegrityProtected:     e.IntegrityProtected(),
		TreePathWrites:         e.TreePathWrites(cfg),
		TreePathOrdered:        e.TreePathOrdered(),
		MetadataWriteThrough:   e.MetadataWriteThrough(),
		CrashConsistent:        e.CrashConsistent(),
	}
}
