package persist_test

// Ground truth for the linter's R4 rule ("log valid flag set before the
// backup payload's persist barrier completes"): reorder a real
// transaction's trace so the valid switch persists first, crash between
// the two, and show that persist.Recover then destroys committed data —
// while internal/check flags the same trace statically, with no crash
// injection at all. The correct trace survives a crash at *every* op
// index and lints clean.

import (
	"testing"

	"encnvm/internal/check"
	"encnvm/internal/mem"
	"encnvm/internal/persist"
	"encnvm/internal/trace"
)

// imageAt reconstructs the durable NVM image at a crash immediately after
// op index at: a store becomes durable once a clwb of its line has been
// issued (the ADR drain accepts issued writebacks, §5.2.2); everything
// still in the volatile cache is lost. Write ops carry the full post-store
// line image, so the plaintext view rebuilds exactly.
func imageAt(tr *trace.Trace, at int) *mem.Space {
	space := mem.NewSpace()
	pending := make(map[mem.Addr]mem.Line)
	for i := 0; i <= at && i < tr.Len(); i++ {
		op := tr.At(i)
		switch op.Kind {
		case trace.Write:
			pending[op.Addr.LineAddr()] = op.Line
		case trace.Clwb:
			if line, ok := pending[op.Addr.LineAddr()]; ok {
				space.WriteLine(op.Addr.LineAddr(), line)
			}
		}
	}
	return space
}

// buildTx seeds one heap cell with old, persists it, then updates it to
// new inside a single transaction, returning the trace and cell address.
func buildTx(mode persist.TxMode) (*trace.Trace, mem.Addr) {
	rt := persist.NewRuntime(persist.ArenaFor(0, 64<<20))
	rt.SetTxMode(mode)
	cell := rt.AllocLines(1)
	rt.StoreUint64(cell, oldVal)
	rt.PersistBarrier(cell, 8)
	rt.Tx(func(tx *persist.Tx) {
		tx.StoreUint64(cell, newVal)
	})
	return rt.Trace(), cell
}

const (
	oldVal = 0xA5A5_0001_A5A5_0001
	newVal = 0xC3C3_0002_C3C3_0002
)

// validBeforePayload reorders the prepare stage so the valid-flag switch
// (CounterAtomic store + clwb + fence) runs before the log payload's
// writebacks — the exact ordering bug R4 describes.
func validBeforePayload(t *testing.T, tr *trace.Trace) *trace.Trace {
	t.Helper()
	begin := check.FindKind(tr, trace.TxBegin, 0, 0)
	validCA := check.FindCounterAtomic(tr, begin, 0)
	firstClwb := check.FindKind(tr, trace.Clwb, begin, 0)
	if begin < 0 || validCA < 0 || firstClwb < 0 || firstClwb > validCA {
		t.Fatalf("unexpected transaction shape: begin=%d valid=%d clwb=%d", begin, validCA, firstClwb)
	}
	// The valid sequence is three contiguous ops: CA store, clwb, fence.
	m := check.MoveOp(tr, validCA, firstClwb)
	m = check.MoveOp(m, validCA+1, firstClwb+1)
	m = check.MoveOp(m, validCA+2, firstClwb+2)
	return m
}

// sweep crashes at every op index from the instant the setup store is
// durable (its first fence) onward, recovers, and returns the set of cell
// values ever observed after recovery.
func sweep(tr *trace.Trace, cell mem.Addr) map[uint64]int {
	arena := persist.ArenaFor(0, 64<<20)
	seen := make(map[uint64]int)
	for at := check.FindKind(tr, trace.Sfence, 0, 0); at < tr.Len(); at++ {
		space := imageAt(tr, at)
		persist.Recover(space, arena)
		seen[space.ReadUint64(cell)] = at
	}
	return seen
}

func TestRecoveryOrderGroundTruth(t *testing.T) {
	arena := persist.ArenaFor(0, 64<<20)
	for _, mode := range []persist.TxMode{persist.Redo, persist.Undo} {
		t.Run(mode.String(), func(t *testing.T) {
			tr, cell := buildTx(mode)

			// The runtime's ordering is crash consistent at every
			// instant: recovery always yields the old or the new value.
			for v, at := range sweep(tr, cell) {
				if v != oldVal && v != newVal {
					t.Fatalf("correct trace corrupts at crash index %d: cell = %#x", at, v)
				}
			}
			// And it lints clean.
			if ds := check.Check(tr, check.Options{Arenas: []persist.Arena{arena}}); len(ds) != 0 {
				t.Fatalf("correct trace drew diagnostics: %v", ds[0])
			}

			// Flip the valid switch ahead of the payload barrier: some
			// crash instant now rolls garbage over the committed cell.
			buggy := validBeforePayload(t, tr)
			corrupts := false
			for v := range sweep(buggy, cell) {
				if v != oldVal && v != newVal {
					corrupts = true
				}
			}
			if !corrupts {
				t.Fatal("valid-before-payload trace never corrupted the cell")
			}

			// The linter catches the same bug statically.
			ds := check.Check(buggy, check.Options{Arenas: []persist.Arena{arena}})
			found := false
			for _, d := range ds {
				if d.Rule == "R4" {
					found = true
				}
			}
			if !found {
				t.Fatalf("linter missed the valid-before-payload bug: %v", ds)
			}
		})
	}
}
