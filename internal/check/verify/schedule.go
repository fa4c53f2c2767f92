package verify

import (
	"encoding/json"
	"fmt"
	"os"

	"encnvm/internal/mem"
	"encnvm/internal/trace"
)

// Schedule kinds.
const (
	// KindConsistency: the schedule yields a post-crash image that fails
	// structural validation (or silently loses a published structure).
	KindConsistency = "consistency"
	// KindDurability: the schedule yields a consistent image that has
	// lost a committed effect — recovered state differs from the final
	// program state, or a supposedly committed transaction rolls back.
	KindDurability = "durability"
)

// LandEntry names one writeback that reaches NVM at the crash. Entries
// not listed are lost with the volatile caches.
type LandEntry struct {
	// Addr is the data line address (for Ctr entries, the data line whose
	// counter lands, not the counter line).
	Addr uint64 `json:"addr"`
	// Ctr lands the line's in-flight counter writeback instead of data.
	Ctr bool `json:"ctr,omitempty"`
	// Evict models a natural cache eviction of the line's current
	// contents: no clwb needed, data lands without its counter unless the
	// last store was CounterAtomic (then both land together, §4.3).
	Evict bool `json:"evict,omitempty"`
	// Op, on Schedule.Drop entries, names the op index that issued the
	// writeback being suppressed (a clwb or counter writeback that never
	// completes, even across later fences).
	Op int `json:"op,omitempty"`
}

// Schedule is a concrete counterexample crash point: crash immediately
// after op CrashOp on core Core, with exactly the Land writebacks having
// reached NVM out of everything in flight. It is the witness the verifier
// emits for a violation, replayable through the crash harness
// (crash.ReplaySchedule / cmd/crashtest -schedule).
type Schedule struct {
	Core    int         `json:"core"`
	CrashOp int         `json:"crashOp"`
	Land    []LandEntry `json:"land,omitempty"`
	// Drop suppresses specific in-flight writebacks entirely: the named
	// (line, half, issuing op) never reaches NVM, even when a later fence
	// retires its siblings. This models persists reordering across an
	// elided or displaced ordering primitive.
	Drop    []LandEntry `json:"drop,omitempty"`
	Kind    string      `json:"kind"`
	Inv     string      `json:"inv"`
	Victim  uint64      `json:"victim"` // the dependency line left behind
	Message string      `json:"message,omitempty"`
}

// String renders a compact human-readable form.
func (s *Schedule) String() string {
	return fmt.Sprintf("core %d, crash after op %d, %d writebacks land, %d suppressed (%s %s, victim %#x)",
		s.Core, s.CrashOp, len(s.Land), len(s.Drop), s.Inv, s.Kind, s.Victim)
}

// File is the on-disk form of a counterexample: enough context to rebuild
// the trace deterministically (workload, params, optional mutant) plus
// the schedule itself. cmd/persistcheck writes these; cmd/crashtest
// -schedule replays them.
type File struct {
	Workload string `json:"workload"`
	TxMode   string `json:"txMode"`
	Legacy   bool   `json:"legacy,omitempty"`
	Seed     int64  `json:"seed"`
	Items    int    `json:"items"`
	Ops      int    `json:"ops"`
	OpsPerTx int    `json:"opsPerTx"`
	Cores    int    `json:"cores"`
	// Mutant optionally names a catalog mutation (check.TxMutants /
	// check.ListMutants) to apply to the crashing core's trace before
	// replay, so mutation-suite counterexamples are CLI-replayable.
	Mutant   string   `json:"mutant,omitempty"`
	Schedule Schedule `json:"schedule"`
}

// WriteFile marshals f as indented JSON.
func (f *File) WriteFile(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile loads a counterexample file.
func ReadFile(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// ---------------------------------------------------------------------------
// Schedule construction. Each violation gets the crash class that most
// directly demolishes the invariant — chosen so the functional replay
// (BuildImage → persist.Recover → workload validation) observably fails,
// not merely differs. The key device is counter garbling: landing exactly
// one side of a data/counter pair makes the line decrypt to garbage
// (Eq. 4), which the paranoid validators always detect.

// switchSchedule builds the counterexample for a V1/V2 violation at the
// CounterAtomic store at op index i, with dep the unsafe earlier store.
// Called on the pre-op state (before applyWrite).
func (v *verifier) switchSchedule(tr *trace.Trace, i int, dep *lineState) *Schedule {
	target := tr.At(i).Addr.LineAddr()
	inv := "V2"
	if !dep.DataSafe {
		inv = "V1"
	}
	isCommit := v.sealSeen && target == v.sealLine
	isSeal := v.inTx && v.IsLog(target) && !isCommit

	if isSeal {
		if s := v.sealCorruptionSchedule(tr, i, dep, inv, target); s != nil {
			return s
		}
	}
	if isCommit {
		if s := v.commitLossSchedule(tr, i, dep, inv); s != nil {
			return s
		}
	}

	// Crash at the switch op itself: the switch line lands by eviction
	// (data+counter atomically — it is CounterAtomic), every other
	// in-flight writeback lands, and exactly the dep's unsafe half is
	// dropped. If the dep's counter is in flight while its data is not
	// safe, land the counter alone — old data under a new counter
	// decrypts to garbage.
	land := []LandEntry{{Addr: uint64(target), Evict: true}}
	for _, a := range v.lineOrder {
		ls := v.lines[a]
		if a == target {
			continue
		}
		if a == dep.Addr {
			if !dep.DataSafe {
				if dep.ctrWBAt >= 0 && !dep.ca {
					land = append(land, LandEntry{Addr: uint64(a), Ctr: true})
				} else if dep.DataWBAt < 0 && !dep.ctrSafe {
					// Nothing in flight at all: evict the dep so its data
					// lands under the bumped-but-volatile counter.
					land = append(land, LandEntry{Addr: uint64(a), Evict: true})
				}
			}
			// V2 (data safe, counter not): drop the counter writeback if
			// any — NVM already holds new data under the old counter.
			continue
		}
		if ls.DataWBAt >= 0 {
			land = append(land, LandEntry{Addr: uint64(a)})
		}
		if ls.ctrWBAt >= 0 && !ls.ca {
			land = append(land, LandEntry{Addr: uint64(a), Ctr: true})
		}
	}
	return &Schedule{
		CrashOp: i, Kind: KindConsistency,
		Inv: inv, Victim: uint64(dep.Addr), Land: land,
		Message: fmt.Sprintf("crash at the counter-atomic switch (op %d): the switch and all other writebacks land, line %#x's %s does not", i, dep.Addr, unsafeHalf(dep)),
	}
}

// nextTxEnd returns the index of the first TxEnd at or after i, or -1.
func nextTxEnd(tr *trace.Trace, i int) int {
	for j, n := i, tr.Len(); j < n; j++ {
		if tr.At(j).Kind == trace.TxEnd {
			return j
		}
	}
	return -1
}

// sealCorruptionSchedule handles a V1/V2 violation at the log seal. A
// corrupted log entry is functionally harmless until recovery needs it:
// crashing at the seal itself only garbles a backup of state that has
// not changed yet, and recovery skips the implausible entry over a
// still-consistent heap. The damage needs an in-place mutation to be
// crash-visible first. So: crash at the transaction's first mutation of
// a pre-existing line (a freshly allocated line may not be reachable
// until a later pointer store links it in, so garbling it can be
// invisible to validation), evict the half-mutated line (its counter is
// volatile, so it lands garbled) and the seal, and suppress the dep's
// unsafe writeback half so the log entry stays unreadable or stale.
// Recovery then faces a mutated heap it cannot roll back.
func (v *verifier) sealCorruptionSchedule(tr *trace.Trace, i int, dep *lineState, inv string, target mem.Addr) *Schedule {
	end := nextTxEnd(tr, i)
	if end < 0 {
		end = tr.Len()
	}
	m := -1
	for j := i + 1; j < end; j++ {
		op := tr.At(j)
		if op.Kind != trace.Write || op.CounterAtomic || v.IsLog(op.Addr) {
			continue
		}
		if m < 0 {
			m = j
		}
		if ls, ok := v.lines[op.Addr.LineAddr()]; ok && ls.StoredAt >= 0 && !ls.StoreInTx {
			m = j
			break
		}
	}
	if m < 0 {
		// No mutation follows inside the transaction; let the caller
		// garble the dep directly at the switch.
		return nil
	}
	var drop []LandEntry
	if !dep.DataSafe && dep.DataWBAt >= 0 {
		drop = append(drop, LandEntry{Addr: uint64(dep.Addr), Op: dep.DataWBAt})
	}
	if !dep.ctrSafe && dep.ctrWBAt >= 0 && !dep.ca {
		drop = append(drop, LandEntry{Addr: uint64(dep.Addr), Ctr: true, Op: dep.ctrWBAt})
	}
	return &Schedule{
		CrashOp: m, Kind: KindConsistency,
		Inv: inv, Victim: uint64(dep.Addr),
		Land: []LandEntry{
			{Addr: uint64(tr.At(m).Addr.LineAddr()), Evict: true},
			{Addr: uint64(target), Evict: true},
		},
		Drop:    drop,
		Message: fmt.Sprintf("crash at the in-place mutation (op %d): the mutated line and the seal land, line %#x's %s does not — recovery cannot restore the heap", m, dep.Addr, unsafeHalf(dep)),
	}
}

// commitLossSchedule handles a V1/V2 violation at the commit record: the
// commit reaches NVM while a mutation writeback, unordered with it, does
// not. Crash at TxEnd with the dep's unsafe half suppressed — including
// any writeback of it issued between the switch and TxEnd. The commit's
// own flush and fence are intact, so recovery retires the log entry, and
// the dep line is left stale, or garbled when its counter landed alone.
func (v *verifier) commitLossSchedule(tr *trace.Trace, i int, dep *lineState, inv string) *Schedule {
	end := nextTxEnd(tr, i)
	if end < 0 {
		return nil
	}
	var drop []LandEntry
	if !dep.DataSafe {
		if dep.DataWBAt >= 0 {
			drop = append(drop, LandEntry{Addr: uint64(dep.Addr), Op: dep.DataWBAt})
		}
		for j := i + 1; j < end; j++ {
			if op := tr.At(j); op.Kind == trace.Clwb && op.Addr.LineAddr() == dep.Addr {
				drop = append(drop, LandEntry{Addr: uint64(dep.Addr), Op: j})
			}
		}
	} else if !dep.ctrSafe {
		if dep.ctrWBAt >= 0 && !dep.ca {
			drop = append(drop, LandEntry{Addr: uint64(dep.Addr), Ctr: true, Op: dep.ctrWBAt})
		}
		for j := i + 1; j < end; j++ {
			if op := tr.At(j); op.Kind == trace.CCWB && CounterGroup(op.Addr) == CounterGroup(dep.Addr) {
				drop = append(drop, LandEntry{Addr: uint64(dep.Addr), Ctr: true, Op: j})
			}
		}
	}
	return &Schedule{
		CrashOp: end, Kind: KindConsistency,
		Inv: inv, Victim: uint64(dep.Addr), Drop: drop,
		Message: fmt.Sprintf("crash at TxEnd (op %d) with line %#x's %s writeback suppressed: the commit is durable but the mutation is not", end, dep.Addr, unsafeHalf(dep)),
	}
}

func unsafeHalf(dep *lineState) string {
	if !dep.DataSafe {
		return "data"
	}
	return "counter"
}

// mutateSchedule builds the counterexample for a V3 violation: crash at
// the in-place store itself and evict the line. Its counter is volatile,
// so the half-mutated line lands garbled while no durable log seal exists
// to restore it.
func (v *verifier) mutateSchedule(i int, op trace.Op) *Schedule {
	return &Schedule{
		CrashOp: i, Kind: KindConsistency,
		Inv: "V3", Victim: uint64(op.Addr.LineAddr()),
		Land:    []LandEntry{{Addr: uint64(op.Addr.LineAddr()), Evict: true}},
		Message: fmt.Sprintf("crash at the unsealed mutation (op %d): the garbled line lands with no recoverable backup", i),
	}
}

// durabilitySchedule builds the counterexample for a V4 violation: crash
// right after the transaction (or trace) "completed" with every in-flight
// writeback lost — the committed effect vanishes.
func (v *verifier) durabilitySchedule(i int, dep *lineState) *Schedule {
	return &Schedule{
		CrashOp: i, Kind: KindDurability,
		Inv: "V4", Victim: uint64(dep.Addr),
		Message: fmt.Sprintf("crash after op %d with all in-flight writebacks lost: line %#x's committed effect is gone", i, dep.Addr),
	}
}
