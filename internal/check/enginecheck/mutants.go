package enginecheck

import "encnvm/internal/machine/engines"

// Mutant is one seeded bad engine plus the rules expected to catch it.
type Mutant struct {
	Engine engines.Engine
	// Expect lists rule IDs; the checker must report at least one
	// finding, and at least one finding's rule must be in this set.
	Expect []string
	Why    string
}

// Mutants returns the seeded catalog of broken engines. Every mutant is
// a copy of a builtin row with one policy answer broken — the exact bugs
// a hand-written future engine is most likely to ship with. Where one
// bug moves two columns, the mutant sets both: an integrity engine that
// stops writing metadata through, or a plaintext engine that gains an
// integrity tree, also carries tree-path writes with its counters.
func Mutants() []Mutant {
	mk := func(name, base string, mutate func(*engines.Engine), why string, expect ...string) Mutant {
		e, err := engines.ByName(base)
		if err != nil {
			panic(err)
		}
		e.Name = name
		mutate(&e)
		return Mutant{Engine: e, Expect: expect, Why: why}
	}

	return []Mutant{
		mk("sca-dropca", "sca", func(e *engines.Engine) { e.DropCounterAtomic = true },
			"SCA that ignores the CounterAtomic annotation: the log seal can garble with no recovery path",
			"C1"),
		mk("sca-nonblocking-ccwb", "sca", func(e *engines.Engine) { e.CounterWritebackBlocks = false },
			"SCA whose ccwb emits but never blocks the barrier: coalesced counters are volatile at the commit switch",
			"C2", "V2"),
		mk("sca-silent-ccwb", "sca", func(e *engines.Engine) { e.CounterWritebackEmits, e.CounterWritebackBlocks = false, false },
			"SCA whose ccwb is a silent no-op: counters never head to NVM at all",
			"C2", "V2"),
		mk("fca-unpaired", "fca", func(e *engines.Engine) { e.ForceCounterAtomic = false },
			"FCA that pairs every write but only forces atomicity on annotated ones: unannotated writes emit unpaired counter halves",
			"C3"),
		mk("colocated-ccwb", "colocated", func(e *engines.Engine) { e.CounterWritebackEmits = true },
			"co-located engine that also emits counter writebacks: there is no separate counter region to write",
			"C0"),
		mk("noenc-countercache", "noenc", func(e *engines.Engine) { e.UsesCounterCache = true },
			"plaintext engine with a counter cache: nothing to cache",
			"C0"),
		mk("ideal-claims-consistent", "ideal", func(e *engines.Engine) { e.CrashConsistent = true },
			"Ideal claiming crash consistency: its unordered ccwb garbles the log on the very first transaction",
			"V2"),
		mk("sca-claims-inconsistent", "sca", func(e *engines.Engine) { e.CrashConsistent = false },
			"SCA disclaiming crash consistency: every abstract program verifies clean, so the disclaimer is unjustified",
			"C4"),
		mk("osiris-norecovery", "osiris", func(e *engines.Engine) { e.Recovery = engines.CounterRegion },
			"Osiris table whose firmware does plain counter-region recovery: a stale counter inside the window stays garbled",
			"C4"),
		mk("osiris-nostoploss", "osiris", func(e *engines.Engine) { e.StopLoss = false },
			"Osiris without the stop-loss rule: counters are unbounded-stale and the dropped annotation has no backstop",
			"C1"),
		mk("ideal-blocking-claim", "ideal", func(e *engines.Engine) { e.CounterWritebackEmits, e.CounterWritebackBlocks = false, true },
			"engine that blocks on a counter writeback it never emits",
			"C0"),
		mk("colocated-separate", "colocated", func(e *engines.Engine) { e.SeparateCounterWrites = true },
			"counters both co-located and separately written",
			"C0"),
		mk("stoploss-plaintext", "noenc", func(e *engines.Engine) { e.StopLoss = true },
			"stop-loss rule on an unencrypted engine: no counters to bound",
			"C0"),
		mk("bmt-drop-tree-path", "bmt", func(e *engines.Engine) { e.TreePathWithCounter = false },
			"BMT whose counter writebacks never carry the ancestor tree path: the switch publishes lines whose tree nodes are volatile",
			"V5"),
		mk("bmt-unordered-tree", "bmt", func(e *engines.Engine) { e.TreePathUnordered = true },
			"BMT whose tree-path writes are emitted but never fence-ordered: the MAC path is in flight at the commit switch",
			"V5"),
		mk("secpm-no-writethrough", "secpm", func(e *engines.Engine) { e.MetadataWriteThrough, e.TreePathWithCounter = false, true },
			"SecPM that stops writing metadata through: with the annotation dropped and no ordering primitives, counters garble at the switch",
			"C1", "C2", "V2"),
		mk("noenc-integrity", "noenc", func(e *engines.Engine) { e.IntegrityProtected, e.TreePathWithCounter = true, true },
			"integrity tree on an unencrypted engine: no counter-mode metadata to protect",
			"C0"),
	}
}
