package check

import (
	"fmt"

	"encnvm/internal/mem"
	"encnvm/internal/trace"
)

// Mutant catalog: the named trace mutations used to mutation-test both
// the dynamic linter (Check) and the static verifier
// (internal/check/verify). Each mutant drops or displaces exactly one
// ordering primitive in a known-clean trace, producing a precise bug
// class; the catalog records which dynamic rule must flag it and where.
// Exporting the catalog lets the verifier's cross-validation suite and
// cmd/crashtest -schedule regenerate the identical mutant from a name.

// Mutant is one generated trace mutation.
type Mutant struct {
	Name  string
	Rule  string // dynamic rule that must flag it
	At    int    // op index the dynamic diagnostic must carry (-1: any)
	Trace *trace.Trace
}

// TxAnatomy locates the first measured transaction's protocol landmarks
// in a transactional workload trace.
type TxAnatomy struct {
	Begin     int // TxBegin
	ValidCA   int // prepare-stage valid-flag CounterAtomic store
	PrepCCWB  int // first prepare-stage counter writeback
	PrepFence int // fence completing the prepare persist barrier
	MutWrite  int // first in-place mutation store
	MutFence  int // fence completing the mutate persist barrier
	CommitCA  int // commit-stage CounterAtomic store
	LastFence int // final fence of the transaction
	End       int // TxEnd
}

// lastKindBefore returns the index of the last op of kind k strictly
// before limit, or -1.
func lastKindBefore(tr *trace.Trace, k trace.Kind, limit int) int {
	for i := limit - 1; i >= 0; i-- {
		if tr.At(i).Kind == k {
			return i
		}
	}
	return -1
}

// lastWriteTo returns the index of the last store to line addr strictly
// before limit, or -1.
func lastWriteTo(tr *trace.Trace, addr mem.Addr, limit int) int {
	for i := limit - 1; i >= 0; i-- {
		if op := tr.At(i); op.Kind == trace.Write && op.Addr.LineAddr() == addr {
			return i
		}
	}
	return -1
}

// Anatomize locates the landmarks of the first measured transaction.
func Anatomize(tr *trace.Trace) (TxAnatomy, error) {
	var a TxAnatomy
	a.Begin = FindKind(tr, trace.TxBegin, 0, 0)
	if a.Begin < 0 {
		return a, fmt.Errorf("check: no transaction to anatomize")
	}
	a.ValidCA = FindCounterAtomic(tr, a.Begin, 0)
	a.CommitCA = FindCounterAtomic(tr, a.Begin, 1)
	a.PrepCCWB = FindKind(tr, trace.CCWB, a.Begin, 0)
	a.PrepFence = lastKindBefore(tr, trace.Sfence, a.ValidCA)
	a.MutFence = lastKindBefore(tr, trace.Sfence, a.CommitCA)
	a.End = FindKind(tr, trace.TxEnd, a.Begin, 0)
	a.LastFence = lastKindBefore(tr, trace.Sfence, a.End)
	for i := a.ValidCA + 1; i < a.CommitCA; i++ {
		if op := tr.At(i); op.Kind == trace.Write && !op.CounterAtomic {
			a.MutWrite = i
			break
		}
	}
	for _, idx := range []int{a.Begin, a.ValidCA, a.PrepCCWB, a.PrepFence,
		a.MutWrite, a.MutFence, a.CommitCA, a.LastFence, a.End} {
		if idx <= 0 {
			return a, fmt.Errorf("check: could not anatomize transaction: %+v", a)
		}
	}
	return a, nil
}

// mutClwbIndex finds the clwb of the first mutation's line inside the
// transaction.
func mutClwbIndex(tr *trace.Trace, a TxAnatomy) (int, error) {
	mutLine := tr.At(a.MutWrite).Addr.LineAddr()
	for i := a.MutWrite + 1; i < a.End; i++ {
		if op := tr.At(i); op.Kind == trace.Clwb && op.Addr.LineAddr() == mutLine {
			return i, nil
		}
	}
	return -1, fmt.Errorf("check: no clwb for mutation line %#x", mutLine)
}

// TxMutants generates the full catalog for a clean transactional
// workload trace: the six original single-primitive mutants plus five
// targeting the static verifier's crash-image reasoning specifically
// (counter written back only after the data is crash-visible, the seal
// or commit reordered into the wrong epoch, a mutation writeback
// reordered past commit).
func TxMutants(tr *trace.Trace) ([]Mutant, error) {
	a, err := Anatomize(tr)
	if err != nil {
		return nil, err
	}
	clwbIdx, err := mutClwbIndex(tr, a)
	if err != nil {
		return nil, err
	}
	mutLine := tr.At(a.MutWrite).Addr.LineAddr()

	// drop-final-fence must mutate the LAST transaction: an earlier
	// transaction's trailing clwb would be fenced by the next one.
	lastEnd := FindLastKind(tr, trace.TxEnd)
	lastF := lastKindBefore(tr, trace.Sfence, lastEnd)
	trailingClwb := lastKindBefore(tr, trace.Clwb, lastF)
	if f := FindKind(tr, trace.Sfence, lastEnd, 0); f >= 0 {
		return nil, fmt.Errorf("check: unexpected fence after the last TxEnd")
	}

	// hoist-mutation hoists the transaction's first in-place overwrite (a
	// line that already existed before the transaction) rather than
	// blindly its first store: hoisting a store to a freshly allocated
	// line is often functionally benign, since nothing reaches the line
	// until a later pointer store links it in.
	hoistIdx := a.MutWrite
	for i := a.ValidCA + 1; i < a.CommitCA; i++ {
		op := tr.At(i)
		if op.Kind == trace.Write && !op.CounterAtomic &&
			lastWriteTo(tr, op.Addr.LineAddr(), a.Begin) >= 0 {
			hoistIdx = i
			break
		}
	}

	dropClwb := DropOp(tr, clwbIdx)
	return []Mutant{
		// R1: the first in-place mutation's clwb vanishes; at TxEnd the
		// line's last store is still volatile.
		{Name: "drop-mutate-clwb", Rule: "R1",
			At: lastWriteTo(dropClwb, mutLine, a.End-1), Trace: dropClwb},
		// R2: the last transaction's final fence vanishes; its commit
		// clwb is never ordered by anything.
		{Name: "drop-final-fence", Rule: "R2",
			At: trailingClwb, Trace: DropOp(tr, lastF)},
		// R3: the first prepare-stage counter writeback vanishes; the
		// valid switch flips while log counters are volatile.
		{Name: "drop-prepare-ccwb", Rule: "R3",
			At: a.ValidCA - 1, Trace: DropOp(tr, a.PrepCCWB)},
		// R4: the prepare fence vanishes; the valid switch flips while
		// the payload writebacks are unordered.
		{Name: "drop-prepare-fence", Rule: "R4",
			At: a.ValidCA - 1, Trace: DropOp(tr, a.PrepFence)},
		// R4 (commit side): the mutate fence vanishes; commit flips while
		// the in-place lines are unordered.
		{Name: "drop-mutate-fence", Rule: "R4",
			At: a.CommitCA - 1, Trace: DropOp(tr, a.MutFence)},
		// R5: an in-place mutation hoisted above the log entry entirely.
		{Name: "hoist-mutation", Rule: "R5",
			At: a.Begin + 1, Trace: MoveOp(tr, hoistIdx, a.Begin+1)},

		// Verifier-targeted operators.
		// The counter writeback happens only after the seal has already
		// made the log entry's data crash-visible — the counter is
		// written after crash-visible data.
		{Name: "ccwb-into-mutate-epoch", Rule: "R3",
			At: a.ValidCA - 1, Trace: MoveOp(tr, a.PrepCCWB, a.MutFence-1)},
		// The log seal reordered past the first in-place mutation: the
		// mutation becomes crash-visible with no durable backup.
		{Name: "seal-after-mutate", Rule: "R5",
			At: a.MutWrite - 1, Trace: MoveOp(tr, a.ValidCA, a.MutWrite)},
		// The commit record lands in the mutate epoch, before the fence
		// that orders the in-place writebacks.
		{Name: "commit-into-mutate-epoch", Rule: "R4",
			At: a.MutFence, Trace: MoveOp(tr, a.CommitCA, a.MutFence)},
		// The seal lands in the prepare epoch, before the fence that
		// orders the log-entry writebacks.
		{Name: "seal-into-prepare-epoch", Rule: "R4",
			At: a.PrepFence, Trace: MoveOp(tr, a.ValidCA, a.PrepFence)},
		// The first mutation's clwb reordered past the commit record:
		// commit flips while the mutation is still volatile.
		{Name: "mutate-clwb-after-commit", Rule: "R4",
			At: a.CommitCA - 1, Trace: MoveOp(tr, clwbIdx, a.CommitCA)},
	}, nil
}

// ListMutants generates the catalog for the log-free linked list's
// Figure-4 insert protocol (node stores; clwb; counter writeback; fence;
// CounterAtomic head flip).
func ListMutants(tr *trace.Trace) ([]Mutant, error) {
	// Setup's publish is the first CounterAtomic store; the first
	// measured insert's flip is the second.
	setupCA := FindCounterAtomic(tr, 0, 0)
	flip := FindCounterAtomic(tr, setupCA+1, 0)
	nodeCCWB := lastKindBefore(tr, trace.CCWB, flip)
	nodeFence := lastKindBefore(tr, trace.Sfence, flip)
	nodeClwb := lastKindBefore(tr, trace.Clwb, nodeFence)
	if flip < 0 || nodeCCWB < 0 || nodeFence < 0 || nodeClwb < 0 {
		return nil, fmt.Errorf("check: could not locate the Figure-4 insert protocol")
	}
	nodeLine := tr.At(nodeClwb).Addr.LineAddr()
	dropClwb := DropOp(tr, nodeClwb)
	return []Mutant{
		// R3: node persisted but its counters never written back.
		{Name: "drop-node-ccwb", Rule: "R3", At: flip - 1, Trace: DropOp(tr, nodeCCWB)},
		// R4: head flips before the node's persist barrier completes.
		{Name: "drop-node-fence", Rule: "R4", At: flip - 1, Trace: DropOp(tr, nodeFence)},
		// R1: the node line is never written back at all.
		{Name: "drop-node-clwb", Rule: "R1",
			At: lastWriteTo(dropClwb, nodeLine, dropClwb.Len()), Trace: dropClwb},
	}, nil
}

// MutantByName regenerates a single catalog mutant from a clean trace,
// searching the transactional catalog first and the linked-list catalog
// second — names are disjoint between the two.
func MutantByName(tr *trace.Trace, name string) (*Mutant, error) {
	var firstErr error
	for _, gen := range []func(*trace.Trace) ([]Mutant, error){TxMutants, ListMutants} {
		ms, err := gen(tr)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for i := range ms {
			if ms[i].Name == name {
				return &ms[i], nil
			}
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("check: mutant %q not found (%v)", name, firstErr)
	}
	return nil, fmt.Errorf("check: unknown mutant %q", name)
}
