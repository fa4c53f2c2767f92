// Package workloads implements the five persistent-memory benchmarks the
// paper evaluates (§6.2) — Array Swap, Queue, Hash Table, B-Tree and
// Red-Black Tree — as real data structures built on the persist runtime's
// undo-log transactions.
//
// Every workload follows the same lifecycle:
//
//	Setup    populate the structure, persist everything, then publish it
//	         by writing a magic word with a CounterAtomic store — the
//	         linked-list head-pointer pattern from the paper's §2.2.3.
//	Run      execute the measured transactions.
//	Validate check structural invariants on a (possibly post-crash,
//	         post-recovery) plaintext image. A structure whose magic is
//	         absent was never published and is vacuously consistent.
//
// Validation is deliberately paranoid: every pointer is bounds-checked
// against the arena and every stored value carries a checkable tag, so
// silent corruption from counter/data mismatch is detected rather than
// followed.
package workloads

import (
	"fmt"
	"math/rand"
	"sort"

	"encnvm/internal/mem"
	"encnvm/internal/persist"
)

// Params configures one workload run.
type Params struct {
	Seed          int64
	Items         int    // initial structure population
	Ops           int    // operations in the measured run
	OpsPerTx      int    // operations batched into one transaction
	ComputeCycles uint32 // think-time cycles between transactions
	// Legacy runs the workload with pre-paper persistency primitives
	// only (no counter_cache_writeback, no CounterAtomic) — the
	// software of the paper's §2.2 motivating failure.
	Legacy bool
	// TxMode selects the crash-consistency mechanism (undo or redo
	// logging); the paper's primitives apply to either (§4.2).
	TxMode persist.TxMode
}

// Validate rejects negative sizes. Zero Items, Ops or OpsPerTx means
// "use the default" (WithDefaults); a negative one would make Run loop
// forever or panic in the generator.
func (p Params) Validate() error {
	switch {
	case p.Items < 0:
		return fmt.Errorf("workloads: negative Items %d", p.Items)
	case p.Ops < 0:
		return fmt.Errorf("workloads: negative Ops %d", p.Ops)
	case p.OpsPerTx < 0:
		return fmt.Errorf("workloads: negative OpsPerTx %d", p.OpsPerTx)
	}
	return nil
}

// WithDefaults fills zero fields with sensible defaults.
func (p Params) WithDefaults() Params {
	if p.Items == 0 {
		p.Items = 256
	}
	if p.Ops == 0 {
		p.Ops = 128
	}
	if p.OpsPerTx == 0 {
		p.OpsPerTx = 1
	}
	if p.ComputeCycles == 0 {
		p.ComputeCycles = 200
	}
	return p
}

// Workload is one of the paper's five benchmarks.
type Workload interface {
	// Name is the identifier used in figures ("arrayswap", "queue", ...).
	Name() string
	// Setup builds and publishes the initial structure.
	Setup(rt *persist.Runtime, p Params)
	// Run executes p.Ops operations in transactions of p.OpsPerTx.
	Run(rt *persist.Runtime, p Params)
	// Validate checks structural invariants against a plaintext image.
	Validate(space *mem.Space, a persist.Arena) error
	// Published reports whether the structure's magic word is intact in
	// the image — i.e. Setup's final CounterAtomic store survived. The
	// crash harness compares this against a ground-truth oracle to
	// detect silent total loss (garbage that merely looks unpublished).
	Published(space *mem.Space, a persist.Arena) bool
}

// All returns the five workloads of the paper's §6.2 in presentation
// order. The figures run exactly this set.
func All() []Workload {
	return []Workload{
		&ArraySwap{}, &Queue{}, &HashTable{}, &BTree{}, &RBTree{},
	}
}

// Extended returns All plus the paper's §2.2.3 motivating linked list,
// which uses the log-free shadow-update protocol instead of transactions.
// Crash-consistency test matrices run this set.
func Extended() []Workload {
	return append(All(), &LinkedList{})
}

// ByName resolves a workload by its Name (including extended workloads).
func ByName(name string) (Workload, error) {
	for _, w := range Extended() {
		if w.Name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// Names lists all workload names.
func Names() []string {
	var out []string
	for _, w := range All() {
		out = append(out, w.Name())
	}
	return out
}

// ExtendedNames lists every workload name ByName resolves, including the
// extended set — the authoritative list for CLI validation and usage text.
func ExtendedNames() []string {
	var out []string
	for _, w := range Extended() {
		out = append(out, w.Name())
	}
	return out
}

// Per-workload magic words: published by Setup's final CounterAtomic
// store; a garbled or absent magic means "structure not published".
const (
	magicArraySwap = 0x4152525953574150 // "ARRYSWAP"
	magicQueue     = 0x51554555455E5E01
	magicHashTable = 0x4841534854424C45
	magicBTree     = 0x42545245455E5E01
	magicRBTree    = 0x5242545245455E01
	// valTag mixes into stored values so garbage is detectable.
	valTag = 0x9E3779B97F4A7C15
)

// keyVal derives the checkable value stored for a key.
func keyVal(key uint64) uint64 { return key*valTag ^ 0xA5A5A5A55A5A5A5A }

// publish persists everything allocated so far and then writes the magic
// word CounterAtomically — the write that makes the structure recoverable.
func publish(rt *persist.Runtime, magic uint64) {
	a := rt.Arena()
	rt.PersistBarrier(a.HeapBase(), int(rt.HeapUsed()))
	rt.StoreUint64CounterAtomic(a.HeapBase(), magic)
	rt.Clwb(a.HeapBase(), 8)
	rt.Fence()
}

// published reports whether the magic word is intact in the image.
func published(space *mem.Space, a persist.Arena, magic uint64) bool {
	return space.ReadUint64(a.HeapBase()) == magic
}

// checkHeapPtr verifies that addr is a plausible heap object address:
// line-aligned and inside the arena's heap region.
func checkHeapPtr(a persist.Arena, addr mem.Addr, what string) error {
	if addr.LineOffset() != 0 {
		return fmt.Errorf("%s pointer %#x not line-aligned", what, addr)
	}
	if addr < a.HeapBase() || addr >= a.End() {
		return fmt.Errorf("%s pointer %#x outside heap [%#x,%#x)", what, addr, a.HeapBase(), a.End())
	}
	return nil
}

// rng returns the workload's deterministic random stream.
func rng(p Params, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(p.Seed*1099511628211 + salt + 0x14650FB0739D0383))
}

// isPermutation checks that got is a permutation of [0,n).
func isPermutation(got []uint64, n int) bool {
	if len(got) != n {
		return false
	}
	sorted := append([]uint64(nil), got...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, v := range sorted {
		if v != uint64(i) {
			return false
		}
	}
	return true
}
