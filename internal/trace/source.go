package trace

import "encnvm/internal/mem"

// Source is a read-only cursor over one core's operation stream. It is
// the seam between trace producers and the replay/verification
// consumers: the in-memory *Trace satisfies it trivially, and BinReader
// satisfies it by decoding fixed-width binary records in place, so a
// campaign can replay traces it never materializes as []Op.
//
// Op writes into a caller-owned destination instead of returning a
// value so that implementations stay allocation-free on the replay hot
// path: the caller keeps one scratch Op and re-decodes into it.
type Source interface {
	// Len returns the number of operations in the stream.
	Len() int
	// Op copies operation i into dst. i must be in [0, Len()).
	Op(i int, dst *Op)
	// Check validates the whole stream (see Trace.Validate) and returns
	// how many TxEnd ops it holds, in one pass. Implementations that
	// validate at construction return what they counted then.
	Check() (txEnds int, err error)
}

// Materialize copies a source into an in-memory Trace. Consumers that
// mutate ops (the mutant catalog, crash-prefix slicing) need the
// materialized form; everything read-only should stay on the cursor.
func Materialize(s Source) *Trace {
	n := s.Len()
	t := &Trace{Ops: make([]Op, n)}
	for i := 0; i < n; i++ {
		s.Op(i, &t.Ops[i])
	}
	return t
}

// CountsOf returns per-kind op counts for a source (Trace.Counts for
// cursors).
func CountsOf(s Source) map[Kind]int {
	var op Op
	out := make(map[Kind]int)
	n := s.Len()
	for i := 0; i < n; i++ {
		s.Op(i, &op)
		out[op.Kind]++
	}
	return out
}

// TransactionsOf returns the number of complete TxBegin/TxEnd pairs in
// a source (Trace.Transactions for cursors).
func TransactionsOf(s Source) int {
	var op Op
	begins, ends := 0, 0
	n := s.Len()
	for i := 0; i < n; i++ {
		s.Op(i, &op)
		switch op.Kind {
		case TxBegin:
			begins++
		case TxEnd:
			ends++
		}
	}
	if ends < begins {
		return ends
	}
	return begins
}

// FootprintLinesOf returns the number of distinct data lines a source
// touches (Trace.FootprintLines for cursors).
func FootprintLinesOf(s Source) int {
	var op Op
	seen := make(map[mem.Addr]bool)
	n := s.Len()
	for i := 0; i < n; i++ {
		s.Op(i, &op)
		switch op.Kind {
		case Read, Write, Clwb:
			seen[op.Addr.LineAddr()] = true
		}
	}
	return len(seen)
}
