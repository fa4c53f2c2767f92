// Package engines is the metadata-engine table — the policy seam of the
// machine architecture. An Engine is one row: a flat struct whose
// columns answer every question the memory controller and the crash
// harness used to settle by branching on config.Design: where
// encryption counters live (co-located with the data, or in a separate
// counter region behind a counter cache), when a write must be
// counter-atomic, whether write acceptance is strict FIFO, whether
// counter_cache_writeback() produces traffic and blocks persist barriers,
// whether counter writes carry an integrity-tree path (or metadata
// writes through with the data, SecPM-style), and which firmware
// algorithm reconstructs plaintext from whatever landed in NVM.
//
// The nine builtin rows are the paper's six designs (§6.1), the Osiris
// extension, and the BMT and SecPM integrity engines. A new design is a
// new row, registered as a machine spec — no controller edits required;
// enginecheck's seeded mutants are builtin rows with a column broken.
//
// The package is a leaf: it imports only the functional model (config,
// mem, ctrenc), never the controller, so both internal/memctrl and
// in-package controller tests can depend on it without cycles.
package engines

import (
	"fmt"
	"sort"

	"encnvm/internal/config"
	"encnvm/internal/ctrenc"
	"encnvm/internal/mem"
)

// Engine is one row of the metadata-engine table: stateless policy,
// held by value. The controller owns all queues, caches and per-line
// state and reads the row's columns in its per-write path. ByName and
// ForDesign return copies, so no caller can edit a builtin row.
type Engine struct {
	// Name is the registry/spec name ("sca", "fca", ...).
	Name string
	// Design is the config.Design enum value this row implements — the
	// enum is presentation sugar over the engine registry.
	Design config.Design

	// Encrypted: writes are counter-mode encrypted.
	Encrypted bool
	// UsesCounterCache: counters are cached on chip.
	UsesCounterCache bool
	// CoLocatesCounters: the 8B counter travels with its 64B data line
	// as one widened 72B access.
	CoLocatesCounters bool
	// SeparateCounterWrites: counters are written back to a separate
	// counter region with their own accesses.
	SeparateCounterWrites bool

	// FIFOAcceptance: write acceptance is strictly FIFO (FCA): a blocked
	// counter-atomic write stalls every younger write.
	FIFOAcceptance bool
	// PairsEveryWrite: each counter-atomic data write is paired with its
	// own non-coalescing counter-line write (FCA's indivisible pair,
	// which doubles its write traffic).
	PairsEveryWrite bool
	// ForceCounterAtomic makes every write counter-atomic and
	// DropCounterAtomic makes none; with neither, the software
	// annotation decides (WriteIsCounterAtomic).
	ForceCounterAtomic bool
	DropCounterAtomic  bool

	// CounterWritebackEmits: counter_cache_writeback() produces a
	// counter write at all (false when counters co-locate with data, are
	// absent, or are recovered from checksums).
	CounterWritebackEmits bool
	// CounterWritebackBlocks: the primitive's acceptance callback waits
	// for the counter write to enter the ADR domain. The Ideal design
	// pays the traffic but never the ordering — which is exactly why it
	// is not crash consistent.
	CounterWritebackBlocks bool

	// StopLoss enables the Osiris stop-loss rule (StopLossLimit).
	StopLoss bool

	// IntegrityProtected: the engine maintains persisted integrity
	// metadata (tree nodes and MACs) over the counters, so a post-crash
	// image must also be tree-verifiable (invariant V5).
	IntegrityProtected bool
	// TreePathWithCounter: every counter write carries the line's
	// ancestor tree-node path plus its MAC line (TreePathWrites).
	TreePathWithCounter bool
	// TreePathUnordered: those tree-path writes are not fence-ordered
	// with the counter write they accompany. False is the sound answer:
	// the fence that makes the counter durable makes the path durable
	// too.
	TreePathUnordered bool
	// MetadataWriteThrough: the combined counter+MAC metadata line is
	// enqueued with every data write (SecPM): metadata is crash
	// consistent by construction, and separate counter durability is
	// never at risk.
	MetadataWriteThrough bool

	// Recovery is the firmware algorithm Recover runs.
	Recovery Recovery

	// CrashConsistent is the design's crash-consistency claim: whether a
	// correctly annotated program recovers to a consistent plaintext
	// image from any crash point. The claim is an input, not a derived
	// fact — enginecheck verifies it in both directions against the rest
	// of the row (a claiming engine must verify clean under the V0–V5
	// invariants; a disclaiming engine must exhibit at least one
	// violating schedule, otherwise the disclaimer is unjustified).
	CrashConsistent bool
}

// Recovery names the firmware algorithm that reconstructs plaintext
// from a post-crash image.
type Recovery uint8

const (
	// CounterRegion decrypts each data line with the counter persisted
	// in the image's counter region.
	CounterRegion Recovery = iota
	// ChecksumWindow searches a stop-loss window of counters for the one
	// whose plaintext matches the line's persisted checksum (Osiris).
	ChecksumWindow
	// TreeWalk decrypts with the persisted counter and verifies each
	// line against the tree root, reporting torn paths unrecovered (BMT).
	TreeWalk
)

// RecoveryCost quantifies recovery work. Trials counts candidate
// decryptions (each a full-line AES operation); Recovered counts lines
// whose counter was stale in NVM and had to be searched for; Unrecovered
// counts lines whose candidate window exhausted (which then fail
// validation).
type RecoveryCost struct {
	Lines       int
	Trials      int
	Recovered   int
	Unrecovered int
}

// WriteIsCounterAtomic decides the final counter-atomicity of a data
// write given its software annotation.
func (e Engine) WriteIsCounterAtomic(annotated bool) bool {
	if e.ForceCounterAtomic {
		return true
	}
	if e.DropCounterAtomic {
		return false
	}
	return annotated
}

// StopLossLimit returns the Osiris stop-loss bound: after this many
// rewrites a line's counter must head to NVM. Negative disables the
// rule entirely (0 writes the counter back with every data write).
func (e Engine) StopLossLimit(cfg *config.Config) int {
	if !e.StopLoss {
		return -1
	}
	return cfg.StopLoss
}

// TreePathWrites returns how many extra metadata line writes each
// counter write carries: the line's ancestor tree-node path plus its
// MAC line when TreePathWithCounter is set, 0 otherwise.
func (e Engine) TreePathWrites(cfg *config.Config) int {
	if !e.TreePathWithCounter {
		return 0
	}
	return TreeDepth(cfg) + 1
}

// Recover reconstructs the plaintext view of a post-crash NVM image
// the way this design's firmware would, from the completed device
// writes. The cost is zero except under ChecksumWindow (Osiris, whose
// candidate search is the quantity the Anubis follow-on optimizes) and
// TreeWalk (BMT, whose root walk charges one MAC verification per line
// and reports torn tree paths unrecovered).
func (e Engine) Recover(cfg *config.Config, lay mem.Layout, enc *ctrenc.Engine,
	writes map[mem.Addr]mem.Write) (*mem.Space, RecoveryCost) {

	switch e.Recovery {
	case ChecksumWindow:
		return recoverOsiris(cfg, lay, enc, writes)
	case TreeWalk:
		return recoverBMT(lay, enc, writes)
	}
	return recoverCounters(lay, enc, writes), RecoveryCost{}
}

// TreeDepth returns the number of interior Bonsai-Merkle-tree levels
// between a counter line and the (always on-chip) tree root for the
// given geometry: counter lines fan in CountersPerLine-to-one per level.
// With the Table-2 defaults (8GB memory, 64B lines, 8 counters per
// line) the tree is 8 levels deep.
func TreeDepth(cfg *config.Config) int {
	arity := uint64(cfg.CountersPerLine())
	counterLines := cfg.MemoryBytes / uint64(cfg.LineBytes) / arity
	depth := 0
	for n := counterLines; n > 1; n = (n + arity - 1) / arity {
		depth++
	}
	return depth
}

// recoverCounters decrypts every data line with the counter present in the
// image's counter region — stale or missing counters yield garbage,
// exactly as on real hardware. A nil encryption engine (plaintext design)
// copies lines verbatim.
func recoverCounters(lay mem.Layout, enc *ctrenc.Engine,
	writes map[mem.Addr]mem.Write) *mem.Space {

	space := mem.NewSpace()
	for addr, w := range writes {
		if !lay.IsData(addr) {
			continue
		}
		if enc == nil {
			space.WriteLine(addr, w.Data)
			continue
		}
		var ctr uint64
		if cl, ok := writes[lay.CounterLine(addr)]; ok {
			ctr = ctrenc.UnpackCounterLine(cl.Data)[lay.CounterSlot(addr)]
		}
		space.WriteLine(addr, enc.Decrypt(w.Data, addr, ctr))
	}
	return space
}

// recoverOsiris reconstructs plaintext the way Osiris-style firmware
// would: for each data line, try the counter stored in NVM plus up to
// StopLoss increments, accepting the first candidate whose decrypted
// plaintext matches the line's persisted ECC checksum. The stop-loss
// write rule guarantees the true counter lies within the window; a line
// whose window exhausts without a match stays garbled (and fails
// validation).
func recoverOsiris(cfg *config.Config, lay mem.Layout, enc *ctrenc.Engine,
	writes map[mem.Addr]mem.Write) (*mem.Space, RecoveryCost) {

	space := mem.NewSpace()
	var cost RecoveryCost
	for addr, w := range writes {
		if !lay.IsData(addr) {
			continue
		}
		cost.Lines++
		var base uint64
		if cl, ok := writes[lay.CounterLine(addr)]; ok {
			base = ctrenc.UnpackCounterLine(cl.Data)[lay.CounterSlot(addr)]
		}
		recovered := false
		for c := base; c <= base+uint64(cfg.StopLoss); c++ {
			cost.Trials++
			plain := enc.Decrypt(w.Data, addr, c)
			if ctrenc.Checksum(plain, addr) == w.Sum {
				space.WriteLine(addr, plain)
				recovered = true
				if c != base {
					cost.Recovered++
				}
				break
			}
		}
		if !recovered {
			cost.Unrecovered++
			space.WriteLine(addr, enc.Decrypt(w.Data, addr, base))
		}
	}
	return space, cost
}

// recoverBMT reconstructs plaintext the way Bonsai-Merkle-tree firmware
// would: decrypt each data line with the counter persisted in the image,
// then verify the result against the tree by re-walking the line's
// ancestor path to the root (modeled through the persisted per-line
// checksum, the same device-side integrity witness Osiris recovery
// uses). A line whose verification fails had a torn counter/tree path:
// it is reported unrecovered and stays garbled, exactly what a root
// mismatch means on real hardware. One trial is charged per line for
// the root walk's MAC verification.
func recoverBMT(lay mem.Layout, enc *ctrenc.Engine,
	writes map[mem.Addr]mem.Write) (*mem.Space, RecoveryCost) {

	space := mem.NewSpace()
	var cost RecoveryCost
	for addr, w := range writes {
		if !lay.IsData(addr) {
			continue
		}
		cost.Lines++
		cost.Trials++
		if enc == nil {
			space.WriteLine(addr, w.Data)
			continue
		}
		var ctr uint64
		if cl, ok := writes[lay.CounterLine(addr)]; ok {
			ctr = ctrenc.UnpackCounterLine(cl.Data)[lay.CounterSlot(addr)]
		}
		plain := enc.Decrypt(w.Data, addr, ctr)
		if ctrenc.Checksum(plain, addr) != w.Sum {
			cost.Unrecovered++
		}
		space.WriteLine(addr, plain)
	}
	return space, cost
}

// builtins is the engine table: the paper's six designs (§6.1), the
// Osiris extension, and the two integrity-tree designs.
var builtins = []Engine{
	// An NVMM system without any encryption.
	{Name: "noenc", Design: config.NoEncryption,
		DropCounterAtomic: true, CrashConsistent: true},
	// Ideal coalesces counters freely and never orders their writebacks;
	// ccwb emits traffic but the barrier does not wait for it — which is
	// exactly why it disclaims crash consistency.
	{Name: "ideal", Design: config.Ideal,
		Encrypted: true, UsesCounterCache: true, SeparateCounterWrites: true,
		CounterWritebackEmits: true},
	// CoLocated moves the counter with the data over a widened 72b bus;
	// atomic by construction, serializing read + decrypt.
	{Name: "colocated", Design: config.CoLocated,
		Encrypted: true, CoLocatesCounters: true,
		DropCounterAtomic: true, CrashConsistent: true},
	// CoLocatedCC is CoLocated plus a counter cache, overlapping
	// decryption of cached counters with the data fetch.
	{Name: "colocatedcc", Design: config.CoLocatedCC,
		Encrypted: true, UsesCounterCache: true, CoLocatesCounters: true,
		DropCounterAtomic: true, CrashConsistent: true},
	// FCA enforces the ready-bit pairing protocol for every write, in
	// strict FIFO acceptance order.
	{Name: "fca", Design: config.FCA,
		Encrypted: true, UsesCounterCache: true, SeparateCounterWrites: true,
		FIFOAcceptance: true, PairsEveryWrite: true, ForceCounterAtomic: true,
		CounterWritebackEmits: true, CounterWritebackBlocks: true,
		CrashConsistent: true},
	// SCA pays the pairing protocol only for writes annotated
	// CounterAtomic; everything else coalesces until a ccwb drains it.
	{Name: "sca", Design: config.SCA,
		Encrypted: true, UsesCounterCache: true, SeparateCounterWrites: true,
		CounterWritebackEmits: true, CounterWritebackBlocks: true,
		CrashConsistent: true},
	// Osiris recovers counters from per-line checksums within a
	// stop-loss window; atomicity is never enforced and ccwb is a no-op.
	{Name: "osiris", Design: config.Osiris,
		Encrypted: true, UsesCounterCache: true, SeparateCounterWrites: true,
		DropCounterAtomic: true, StopLoss: true, Recovery: ChecksumWindow,
		CrashConsistent: true},
	// BMT is SCA plus a persisted Bonsai Merkle tree: every counter
	// write additionally carries the line's ancestor tree-node path and
	// MAC into the counter write queue (Freij et al.'s streamlined tree
	// update), so the fence that makes a counter durable makes its path
	// durable too and V5 holds wherever V2 does.
	{Name: "bmt", Design: config.BMT,
		Encrypted: true, UsesCounterCache: true, SeparateCounterWrites: true,
		CounterWritebackEmits: true, CounterWritebackBlocks: true,
		IntegrityProtected: true, TreePathWithCounter: true, Recovery: TreeWalk,
		CrashConsistent: true},
	// SecPM writes the combined counter+MAC metadata line through with
	// every data write (Zuo et al.); the counter write queue's
	// coalescing provides the paper's counter write coalescing. Crash
	// consistent by construction: no annotations, no ordering
	// primitives, no recovery search.
	{Name: "secpm", Design: config.SecPM,
		Encrypted: true, UsesCounterCache: true, SeparateCounterWrites: true,
		DropCounterAtomic: true, IntegrityProtected: true,
		MetadataWriteThrough: true, CrashConsistent: true},
}

// ByName returns a copy of the builtin row with the given registry name.
func ByName(name string) (Engine, error) {
	for _, e := range builtins {
		if e.Name == name {
			return e, nil
		}
	}
	return Engine{}, fmt.Errorf("engines: unknown metadata engine %q (valid: %v)", name, Names())
}

// Names lists the builtin engine names, sorted.
func Names() []string {
	out := make([]string, 0, len(builtins))
	for _, e := range builtins {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// ForDesign returns a copy of the builtin row implementing the given
// design enum value.
func ForDesign(d config.Design) (Engine, error) {
	for _, e := range builtins {
		if e.Design == d {
			return e, nil
		}
	}
	return Engine{}, fmt.Errorf("engines: no metadata engine for design %v", d)
}
