package check

import (
	"slices"

	"encnvm/internal/trace"
)

// Trace mutation operators for mutation-testing the linter: each produces
// a copy of the input with one ordering primitive dropped or displaced,
// the precise bug classes the rules exist to catch. The originals are
// never modified.

// DropOp returns a copy of tr without the op at index i.
func DropOp(tr *trace.Trace, i int) *trace.Trace {
	return trace.New(slices.Delete(tr.Ops(), i, i+1))
}

// MoveOp returns a copy of tr with the op at index from re-inserted so it
// lands at index to in the result.
func MoveOp(tr *trace.Trace, from, to int) *trace.Trace {
	ops := slices.Delete(tr.Ops(), from, from+1)
	return trace.New(slices.Insert(ops, to, tr.At(from)))
}

// FindKind returns the index of the nth (0-based) op of kind k at index
// >= from, or -1.
func FindKind(tr *trace.Trace, k trace.Kind, from, nth int) int {
	for i := from; i < tr.Len(); i++ {
		if tr.At(i).Kind == k {
			if nth == 0 {
				return i
			}
			nth--
		}
	}
	return -1
}

// FindLastKind returns the index of the last op of kind k, or -1.
func FindLastKind(tr *trace.Trace, k trace.Kind) int {
	for i := tr.Len() - 1; i >= 0; i-- {
		if tr.At(i).Kind == k {
			return i
		}
	}
	return -1
}

// FindCounterAtomic returns the index of the nth (0-based) CounterAtomic
// store at index >= from, or -1.
func FindCounterAtomic(tr *trace.Trace, from, nth int) int {
	for i := from; i < tr.Len(); i++ {
		if op := tr.At(i); op.Kind == trace.Write && op.CounterAtomic {
			if nth == 0 {
				return i
			}
			nth--
		}
	}
	return -1
}
