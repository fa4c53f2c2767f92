// Package verify is the static crash-image verifier: an abstract
// interpreter over the trace IR that proves, for EVERY crash point of a
// recorded execution — not a sample — that all reachable persisted images
// satisfy the paper's crash-consistency invariants, or else emits a
// concrete counterexample crash schedule replayable through the crash
// harness (cmd/crashtest -schedule).
//
// # Crash model
//
// The model is the paper's extended-ADR failure semantics (§5.2.2) plus
// the cache reality every persistency protocol must survive:
//
//   - A store's new data may reach NVM at ANY time after the store — a
//     cache eviction needs no clwb. For a plain store the line is written
//     back encrypted under its bumped counter while the counter itself
//     stays in the volatile counter cache, so an eviction-persisted line
//     decrypts to garbage until its counter also persists (Eq. 4).
//   - A clwb/counter_cache_writeback is "in flight" from issue until the
//     next retired sfence: at a crash it has independently either reached
//     NVM or been lost.
//   - After the sfence retires, the writeback is DEFINITELY persistent.
//   - A CounterAtomic line persists data and counter atomically (§4.3),
//     whether written back explicitly or evicted; it is never garbled,
//     only atomically old or new.
//
// # Equivalence classes
//
// A crash point is an instant between two trace ops together with an
// outcome for every in-flight writeback — exponentially many raw crash
// states. Two prunings (WITCHER/Yat-style) make verification linear in
// trace length:
//
//   - Crash points between ops that do not change the reachable persisted
//     image set (reads, compute, transaction markers) collapse into one
//     representative class; only Write/Clwb/CCWB/Sfence ops open a new
//     class (OpensClass).
//   - Within a class the in-flight subsets are never enumerated: each
//     invariant is a two-literal implication ("switch persisted" and
//     "dependency not persisted"), so a violating subset exists iff the
//     switch is possibly-persisted while a dependency is not
//     definitely-persisted. The per-epoch persist-set facts (definite /
//     in-flight / volatile per line and per counter) summarize everything
//     the invariants can observe.
//
// Because eviction makes a store possibly-persistent immediately, every
// invariant is checked at the op that opens the earliest class where the
// antecedent can hold; all later classes in the same window are implied.
//
// # Shared state
//
// The persist-set facts live in State. Verify reads the state each op
// finds, runs that op's invariant checks, then calls State.Apply. The
// trace linter (internal/check) drives the same State, so its rules
// R1–R5 and the invariants here observe one model of a line's
// persistence.
//
// # Invariants
//
//	V1  counter-atomic switch while an earlier store's DATA is not
//	    definitely persisted: a crash class persists the switch (eviction
//	    suffices) but drops the payload — publish-before-persist.
//	V2  counter-atomic switch while an earlier store's COUNTER is not
//	    definitely persisted: the published line decrypts to garbage in
//	    some class — the paper's §2.2 failure.
//	V3  in-place mutation inside a transaction before the log seal (the
//	    valid-flag CounterAtomic store) is definitely persisted: a class
//	    evicts the half-mutated line with no recoverable backup.
//	V4  durability: a line still volatile or unfenced at TxEnd or at the
//	    end of the trace — a class immediately after the "completed"
//	    program loses the committed effect.
//	V5  (tree-protected engines only) counter-atomic switch while an
//	    ancestor integrity-tree node of an earlier store is not
//	    definitely persisted: the published line fails MAC/tree
//	    verification after a crash even though it decrypts correctly —
//	    the counter problem again at tree scale.
//
// V1/V2 are the exhaustive forms of the dynamic linter's R3/R4, V3 of R5,
// V4 of R1/R2 (internal/check); every trace mutant the dynamic rules
// catch fails static verification too, with a reproducing schedule — the
// cross-validation suite in this package enforces exactly that.
package verify

import (
	"fmt"
	"sort"

	"encnvm/internal/mem"
	"encnvm/internal/persist"
	"encnvm/internal/trace"
)

// Options configures one verification run.
type Options struct {
	// Arenas locates per-core log regions so the verifier can tell log
	// writes (prepare/commit stages) from in-place mutations. Leaving it
	// empty disables V3, exactly like the dynamic linter's R5.
	Arenas []persist.Arena
	// Model selects the engine-dependent persistence semantics. Nil
	// verifies under the default model — SCA-style separate counters
	// where only annotated stores persist atomically and ccwb is
	// fence-ordered — which is the machine the trace IR was recorded on.
	Model *Model
}

// Model abstracts over the persistence semantics that differ between
// metadata engines, so one trace can be verified the way each design's
// hardware would persist it. The software annotations in the trace are
// interpreted unchanged — a CounterAtomic store is still the protocol's
// publication point, and the log seal is still detected from it — but
// the persist-set facts a store perturbs depend on the engine: whether
// data and counter land atomically, whether the counter dimension is at
// risk at all, and whether counter_cache_writeback() is ordered by the
// next fence.
//
// The zero Model (and a nil Options.Model) reproduces the verifier's
// historical behavior exactly: AtomicWrite = identity on the annotation,
// CounterFree = false, ordered CCWB, no integrity tree. Every field is
// phrased so its zero value selects that default — in particular the
// CCWB ordering flag is inverted (CCWBUnordered) so that &Model{} and a
// nil Options.Model are indistinguishable.
type Model struct {
	// AtomicWrite reports whether a store with the given software
	// annotation persists its data and counter atomically (the engine's
	// WriteIsCounterAtomic policy). Nil means the annotation itself.
	AtomicWrite func(annotated bool) bool
	// CounterFree reports that separate counter durability is never a
	// crash risk for this engine: plaintext (no counters), co-located
	// counters (travel with the line), checksum-recoverable counters
	// within a stop-loss window, or metadata written through with every
	// data write. Counter facts then track data facts.
	CounterFree bool
	// CCWBUnordered reports that counter_cache_writeback() emits traffic
	// the next retired sfence never waits for (Ideal): a CCWB op then
	// never makes any counter definitely persistent — the sound
	// abstraction of an unordered writeback. The zero value (false)
	// is the historical ordered semantics: the writeback's counter write
	// becomes definitely persistent at the next retired sfence.
	CCWBUnordered bool
	// TreeProtected reports that the engine maintains a persisted
	// integrity tree (ancestor tree nodes + MACs) over the counters, so
	// a commit switch additionally requires the publishing lines' tree
	// paths to be definitely persisted (invariant V5). The zero value
	// disables V5 — the historical counters-only analysis.
	TreeProtected bool
	// TreePathWithCounter reports that every counter write (an explicit
	// counter_cache_writeback and the counter half of a CounterAtomic
	// writeback) carries the line's ancestor tree-node path and MAC, so
	// the fence that makes the counter definite makes the path definite
	// too. When false under TreeProtected, tree paths are never written
	// back and V5 fires on every switch over an unsafe line.
	TreePathWithCounter bool
	// TreePathUnordered reports that tree-path writes are emitted but
	// never fence-ordered: the path never becomes definitely persistent
	// (the tree analogue of CCWBUnordered). Only meaningful under
	// TreeProtected with TreePathWithCounter.
	TreePathUnordered bool
}

// atomic resolves the engine-effective persistence atomicity of a store.
func (m Model) atomic(annotated bool) bool {
	if m.CounterFree {
		return true
	}
	if m.AtomicWrite != nil {
		return m.AtomicWrite(annotated)
	}
	return annotated
}

// Invariant documents one verifier invariant for tool catalogs.
type Invariant struct {
	ID  string
	Doc string
}

// Invariants returns the catalog of crash-consistency invariants this
// package checks, in ID order, for persistcheck -list and the
// enginecheck rule tables.
func Invariants() []Invariant {
	return []Invariant{
		{"V0", "trace is structurally valid (balanced transactions, known ops)"},
		{"V1", "no counter-atomic switch while an earlier store's data is not definitely persisted"},
		{"V2", "no counter-atomic switch while an earlier store's counter is not definitely persisted (garble on crash)"},
		{"V3", "no in-place transactional mutation before the log seal is definitely persisted"},
		{"V4", "every store definitely persisted at TxEnd and at end of trace (durability)"},
		{"V5", "no counter-atomic switch while an ancestor integrity-tree node of an earlier store is not definitely persisted (tree-protected engines)"},
	}
}

// Violation is one invariant breach, anchored to the op that opens the
// earliest violating crash class.
type Violation struct {
	Inv      string   // "V0".."V5"
	OpIndex  int      // op opening the violating class
	Addr     mem.Addr // the dependency/victim line (not the switch)
	Message  string
	Schedule *Schedule // reproducing crash schedule (nil for V0 and V5)
}

// String renders the violation in the linter's one-line form.
func (v Violation) String() string {
	return fmt.Sprintf("op %d: %s: %s", v.OpIndex, v.Inv, v.Message)
}

// Result summarizes one verified trace.
type Result struct {
	Ops        int // trace length
	Epochs     int // sfence-delimited persist windows
	Classes    int // crash-point equivalence classes enumerated
	Violations []Violation
}

// Clean reports whether every crash class satisfied every invariant.
func (r Result) Clean() bool { return len(r.Violations) == 0 }

// verifier threads the abstract state through one core's trace.
type verifier struct {
	*State

	epoch   int
	classes int

	res Result
}

// Verify statically checks every crash-point equivalence class of tr.
// A structurally invalid trace yields a single V0 violation (the stream
// cannot be trusted) and no further analysis. The trace arrives as a
// cursor so campaigns can verify binary trace files they never
// materialize; *trace.Trace satisfies Source directly.
func Verify(tr trace.Source, opts Options) Result {
	if err := tr.Validate(); err != nil {
		return Result{Ops: tr.Len(), Violations: []Violation{{
			Inv: "V0", Message: "invalid trace: " + err.Error(),
		}}}
	}
	v := &verifier{State: NewState(opts)}
	v.res.Ops = tr.Len()
	v.classes = 1 // the class before any op
	var op trace.Op
	for i, n := 0, tr.Len(); i < n; i++ {
		tr.Op(i, &op)
		v.step(tr, i, op)
	}
	v.finish(tr)
	v.res.Classes = v.classes
	v.res.Epochs = v.epoch + 1
	sort.SliceStable(v.res.Violations, func(a, b int) bool {
		x, y := v.res.Violations[a], v.res.Violations[b]
		if x.OpIndex != y.OpIndex {
			return x.OpIndex < y.OpIndex
		}
		if x.Inv != y.Inv {
			return x.Inv < y.Inv
		}
		return x.Addr < y.Addr
	})
	return v.res
}

// step runs the invariant checks that op i's crash class makes
// decidable, then applies the op. Checks observe the state BEFORE the op
// — the class opened by op i contains the op's own effect as
// possibly-persisted, and the pre-state is what it publishes.
func (v *verifier) step(tr trace.Source, i int, op trace.Op) {
	if OpensClass(op.Kind) {
		v.classes++
	}
	switch op.Kind {
	case trace.Write:
		if op.CounterAtomic {
			v.checkSwitch(tr, i, op)
		} else if v.inTx && v.KnowsLog() && !v.IsLog(op.Addr) {
			v.checkMutate(tr, i, op)
		}
	case trace.Sfence:
		v.epoch++
	case trace.TxEnd:
		v.checkTxEnd(tr, i)
	}
	v.Apply(i, op)
}

// checkSwitch verifies V1/V2/V5 at a CounterAtomic store: in the class
// this op opens, the switch line is possibly-persisted (eviction
// suffices), so every earlier store it publishes must already be
// definitely readable — and, on a tree-protected engine, definitely
// verifiable: its ancestor tree nodes persisted too.
func (v *verifier) checkSwitch(tr trace.Source, i int, op trace.Op) {
	target := op.Addr.LineAddr()
	for _, a := range v.lineOrder {
		ls := v.lines[a]
		if a == target || ls.StoredAt < 0 {
			continue
		}
		if !ls.safe() {
			if !ls.DataSafe {
				v.res.Violations = append(v.res.Violations, Violation{
					Inv: "V1", OpIndex: i, Addr: a,
					Message: fmt.Sprintf("counter-atomic switch of %#x while data of line %#x (stored at op %d) is not definitely persisted",
						target, a, ls.StoredAt),
					Schedule: v.switchSchedule(tr, i, ls),
				})
				continue
			}
			v.res.Violations = append(v.res.Violations, Violation{
				Inv: "V2", OpIndex: i, Addr: a,
				Message: fmt.Sprintf("counter-atomic switch of %#x while the counter of line %#x (stored at op %d) is not definitely persisted: the line decrypts to garbage in some crash class",
					target, a, ls.StoredAt),
				Schedule: v.switchSchedule(tr, i, ls),
			})
			continue
		}
		if v.model.TreeProtected && !ls.treeSafe {
			// Data and counter are durable but an ancestor tree node is
			// not: after a crash the line fails integrity verification
			// even though it would decrypt correctly. The functional
			// replay harness has no tree to lose, so no Schedule.
			v.res.Violations = append(v.res.Violations, Violation{
				Inv: "V5", OpIndex: i, Addr: a,
				Message: fmt.Sprintf("counter-atomic switch of %#x while an ancestor tree node of line %#x (stored at op %d) is not definitely persisted: the line fails integrity verification in some crash class",
					target, a, ls.StoredAt),
			})
		}
	}
}

// checkMutate verifies V3 at an in-place transactional store: the store
// is possibly-persisted (and possibly garbled) from this class onward, so
// the log seal must already be durable or the mutation is unrecoverable.
func (v *verifier) checkMutate(tr trace.Source, i int, op trace.Op) {
	if v.sealDurable() {
		return
	}
	why := "no counter-atomic log seal has occurred"
	if v.sealSeen {
		why = fmt.Sprintf("the seal at op %d is not definitely persisted", v.sealAt)
	}
	v.res.Violations = append(v.res.Violations, Violation{
		Inv: "V3", OpIndex: i, Addr: op.Addr.LineAddr(),
		Message: fmt.Sprintf("in-place mutation of line %#x while %s: an eviction class persists the garbled line with no recoverable backup",
			op.Addr.LineAddr(), why),
		Schedule: v.mutateSchedule(i, op),
	})
}

// checkTxEnd verifies V4 at a transaction boundary: everything the
// transaction stored must be definitely readable, or the class right
// after TxEnd loses a committed effect.
func (v *verifier) checkTxEnd(tr trace.Source, i int) {
	for _, a := range v.lineOrder {
		ls := v.lines[a]
		if !ls.StoreInTx || ls.StoredAt < 0 || ls.safe() {
			continue
		}
		v.res.Violations = append(v.res.Violations, Violation{
			Inv: "V4", OpIndex: i, Addr: a,
			Message: fmt.Sprintf("line %#x (stored at op %d) not definitely persisted at TxEnd",
				a, ls.StoredAt),
			Schedule: v.durabilitySchedule(i, ls),
		})
	}
}

// finish verifies V4 at the end of the trace: the program has completed,
// so every store must be definitely readable.
func (v *verifier) finish(tr trace.Source) {
	n := tr.Len()
	for _, a := range v.lineOrder {
		ls := v.lines[a]
		if ls.StoredAt < 0 || ls.safe() {
			continue
		}
		v.res.Violations = append(v.res.Violations, Violation{
			Inv: "V4", OpIndex: n - 1, Addr: a,
			Message: fmt.Sprintf("line %#x (stored at op %d) not definitely persisted at end of trace",
				a, ls.StoredAt),
			Schedule: v.durabilitySchedule(n-1, ls),
		})
	}
}
