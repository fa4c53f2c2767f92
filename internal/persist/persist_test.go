package persist

import (
	"bytes"
	"testing"
	"testing/quick"

	"encnvm/internal/mem"
	"encnvm/internal/trace"
)

func newRT() *Runtime { return NewRuntime(ArenaFor(0, 16<<20)) }

func TestArenaLayout(t *testing.T) {
	a := ArenaFor(2, 16<<20)
	if a.Base != 32<<20+2*37*mem.LineBytes {
		t.Fatalf("base = %#x", a.Base)
	}
	if a.Base.LineOffset() != 0 {
		t.Fatal("skewed base not line aligned")
	}
	// Consecutive arenas never overlap.
	b := ArenaFor(3, 16<<20)
	if b.Base < a.End() {
		t.Fatalf("arena 3 (%#x) overlaps arena 2 end (%#x)", b.Base, a.End())
	}
	if a.HeapBase() != a.Base+LogRegionBytes {
		t.Fatalf("heap base = %#x", a.HeapBase())
	}
	if !a.Contains(a.Base, 1) || !a.Contains(a.End()-1, 1) {
		t.Fatal("arena excludes its own bytes")
	}
	if a.Contains(a.End(), 1) || a.Contains(a.Base-1, 1) {
		t.Fatal("arena includes outside bytes")
	}
}

func TestAllocAligned(t *testing.T) {
	rt := newRT()
	a := rt.Alloc(10)
	b := rt.Alloc(100)
	if a.LineOffset() != 0 || b.LineOffset() != 0 {
		t.Fatal("allocations not line aligned")
	}
	if b != a+64 {
		t.Fatalf("10-byte alloc consumed %d bytes", b-a)
	}
	if rt.HeapUsed() != 64+128 {
		t.Fatalf("heap used = %d", rt.HeapUsed())
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	rt := NewRuntime(ArenaFor(0, LogRegionBytes+128))
	rt.Alloc(64)
	rt.Alloc(64)
	defer func() {
		if recover() == nil {
			t.Error("exhausted arena did not panic")
		}
	}()
	rt.Alloc(64)
}

func TestStoreLoadRoundTrip(t *testing.T) {
	rt := newRT()
	a := rt.Alloc(128)
	msg := []byte("counter atomicity matters")
	rt.Store(a+60, msg) // crosses a line boundary
	if got := rt.Load(a+60, len(msg)); !bytes.Equal(got, msg) {
		t.Fatalf("load = %q", got)
	}
	// Two lines touched -> two Write ops; one Read op per line on load.
	counts := rt.Trace().Counts()
	if counts[trace.Write] != 2 {
		t.Fatalf("write ops = %d, want 2", counts[trace.Write])
	}
	if counts[trace.Read] != 2 {
		t.Fatalf("read ops = %d, want 2", counts[trace.Read])
	}
}

func TestStoreUint64(t *testing.T) {
	rt := newRT()
	a := rt.Alloc(8)
	rt.StoreUint64(a, 0xCAFEBABE)
	if rt.LoadUint64(a) != 0xCAFEBABE {
		t.Fatal("uint64 round trip failed")
	}
}

func TestCounterAtomicAnnotation(t *testing.T) {
	rt := newRT()
	a := rt.Alloc(64)
	rt.StoreUint64(a, 1)
	rt.StoreUint64CounterAtomic(a, 2)
	ops := rt.Trace().Ops()
	if ops[0].CounterAtomic || !ops[1].CounterAtomic {
		t.Fatalf("CA flags = %v %v", ops[0].CounterAtomic, ops[1].CounterAtomic)
	}
}

func TestCCWBCoalescesCounterLineGroups(t *testing.T) {
	rt := newRT()
	base := rt.AllocLines(16) // 16 lines = 2 counter-line groups
	rt.CCWB(base, 16*64)
	if got := rt.Trace().Counts()[trace.CCWB]; got != 2 {
		t.Fatalf("ccwb ops = %d, want 2", got)
	}
}

func TestPersistBarrierComposition(t *testing.T) {
	rt := newRT()
	a := rt.AllocLines(2)
	rt.Store(a, make([]byte, 128))
	rt.PersistBarrier(a, 128)
	c := rt.Trace().Counts()
	if c[trace.Clwb] != 2 || c[trace.CCWB] != 1 || c[trace.Sfence] != 1 {
		t.Fatalf("barrier ops: clwb=%d ccwb=%d sfence=%d", c[trace.Clwb], c[trace.CCWB], c[trace.Sfence])
	}
}

func TestComputeOp(t *testing.T) {
	rt := newRT()
	rt.Compute(0) // dropped
	rt.Compute(100)
	c := rt.Trace().Counts()
	if c[trace.Compute] != 1 {
		t.Fatalf("compute ops = %d", c[trace.Compute])
	}
}

func TestTxAppliesWrites(t *testing.T) {
	rt := newRT()
	a := rt.Alloc(64)
	rt.StoreUint64(a, 1)
	rt.Tx(func(tx *Tx) {
		tx.StoreUint64(a, 2)
		if tx.LoadUint64(a) != 2 {
			t.Error("tx does not read its own write")
		}
	})
	if rt.LoadUint64(a) != 2 {
		t.Fatal("tx write lost after commit")
	}
	if err := rt.Trace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTxStageStructure(t *testing.T) {
	rt := newRT()
	a := rt.Alloc(64)
	rt.Tx(func(tx *Tx) { tx.StoreUint64(a, 7) })
	// Three persist barriers: prepare-payload, prepare-valid is folded
	// into its own fence, mutate, commit = 4 sfences total; exactly two
	// CounterAtomic stores (valid set + clear).
	var fences, caStores int
	for _, op := range rt.Trace().Ops() {
		switch {
		case op.Kind == trace.Sfence:
			fences++
		case op.Kind == trace.Write && op.CounterAtomic:
			caStores++
		}
	}
	if fences != 4 {
		t.Fatalf("fences = %d, want 4 (prepare x2, mutate, commit)", fences)
	}
	if caStores != 2 {
		t.Fatalf("CounterAtomic stores = %d, want 2 (valid set+clear)", caStores)
	}
}

func TestTxReadOnlyEmitsNoStages(t *testing.T) {
	rt := newRT()
	a := rt.Alloc(64)
	rt.StoreUint64(a, 3)
	before := rt.Trace().Len()
	rt.Tx(func(tx *Tx) { tx.LoadUint64(a) })
	// Only TxBegin + Read + TxEnd beyond the prior ops.
	if got := rt.Trace().Len() - before; got != 3 {
		t.Fatalf("read-only tx emitted %d ops, want 3", got)
	}
}

func TestNestedTxPanics(t *testing.T) {
	rt := newRT()
	defer func() {
		if recover() == nil {
			t.Error("nested tx did not panic")
		}
	}()
	rt.Tx(func(*Tx) { rt.Tx(func(*Tx) {}) })
}

func TestTxStoreOutsideArenaPanics(t *testing.T) {
	rt := newRT()
	defer func() {
		if recover() == nil {
			t.Error("out-of-arena tx store did not panic")
		}
	}()
	rt.Tx(func(tx *Tx) { tx.StoreUint64(rt.Arena().End()+64, 1) })
}

func TestRecoveryNoLog(t *testing.T) {
	rt := newRT()
	a := rt.Alloc(64)
	rt.StoreUint64(a, 42)
	rep := Recover(rt.Space(), rt.Arena())
	if rep.ValidEntries != 0 || rep.Corrupt != 0 {
		t.Fatalf("clean space recovery report: %+v", rep)
	}
	if rt.LoadUint64(a) != 42 {
		t.Fatal("recovery mutated clean data")
	}
}

// TestRecoveryRollsBack simulates a crash between the prepare and commit
// stages: the log entry is valid, the in-place data half-mutated. Recovery
// must restore the old values.
func TestRecoveryRollsBack(t *testing.T) {
	rt := newRT()
	a := rt.Alloc(128)
	rt.StoreUint64(a, 100)
	rt.StoreUint64(a+64, 200)

	// Run a transaction, then manually re-garble the data and re-mark
	// the log valid — equivalent to the crash point after mutate began.
	rt.Tx(func(tx *Tx) {
		tx.StoreUint64(a, 111)
		tx.StoreUint64(a+64, 222)
	})
	// The tx used slot 0; resurrect its valid flag and damage the data.
	slot := rt.Arena().slot(0)
	rt.Space().WriteUint64(slot+slotValidOff, validMagic)
	rt.Space().WriteUint64(a, 0xDEAD)

	rep := Recover(rt.Space(), rt.Arena())
	if rep.ValidEntries != 1 || rep.Corrupt != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if got := rt.Space().ReadUint64(a); got != 100 {
		t.Fatalf("a = %d after rollback, want 100", got)
	}
	if got := rt.Space().ReadUint64(a + 64); got != 200 {
		t.Fatalf("a+64 = %d after rollback, want 200", got)
	}
	// Idempotent: the entry was invalidated.
	rep = Recover(rt.Space(), rt.Arena())
	if rep.ValidEntries != 0 {
		t.Fatal("second recovery found the same entry")
	}
}

func TestRecoveryRejectsGarbageEntry(t *testing.T) {
	rt := newRT()
	slot := rt.Arena().slot(1)
	rt.Space().WriteUint64(slot+slotValidOff, validMagic)
	rt.Space().WriteUint64(slot+slotHeaderOff, 3)
	// Backed-up line pointing far outside the arena.
	rt.Space().WriteUint64(slot+slotTableOff, uint64(rt.Arena().End())+4096)
	rep := Recover(rt.Space(), rt.Arena())
	if rep.Corrupt != 1 {
		t.Fatalf("corrupt garbage entry not detected: %+v", rep)
	}

	// Unaligned line address is also rejected.
	rt = newRT()
	slot = rt.Arena().slot(0)
	rt.Space().WriteUint64(slot+slotValidOff, validMagic)
	rt.Space().WriteUint64(slot+slotHeaderOff, 1)
	rt.Space().WriteUint64(slot+slotTableOff, uint64(rt.Arena().HeapBase())+13)
	rep = Recover(rt.Space(), rt.Arena())
	if rep.Corrupt != 1 {
		t.Fatalf("unaligned entry not detected: %+v", rep)
	}

	// Implausible line count is rejected.
	rt = newRT()
	slot = rt.Arena().slot(0)
	rt.Space().WriteUint64(slot+slotValidOff, validMagic)
	rt.Space().WriteUint64(slot+slotHeaderOff, maxLogLines+1)
	rep = Recover(rt.Space(), rt.Arena())
	if rep.Corrupt != 1 {
		t.Fatalf("oversized entry not detected: %+v", rep)
	}
}

func TestRecoveryRejectsGarbledValidFlag(t *testing.T) {
	// A valid flag that decrypted to garbage is not the magic value and
	// must be ignored.
	rt := newRT()
	slot := rt.Arena().slot(0)
	rt.Space().WriteUint64(slot+slotValidOff, 0x1234567890ABCDEF)
	rep := Recover(rt.Space(), rt.Arena())
	if rep.ValidEntries != 0 {
		t.Fatal("garbled valid flag accepted")
	}
}

// Property: for any sequence of transactional uint64 writes, a crash at
// "after commit" (i.e. the final state) recovers to exactly the final
// values, and a crash "mid-mutate with valid log" recovers to the previous
// values.
func TestPropertyTxAtomicity(t *testing.T) {
	f := func(vals []uint64) bool {
		if len(vals) == 0 || len(vals) > 32 {
			return true
		}
		rt := newRT()
		addrs := make([]mem.Addr, len(vals))
		for i := range vals {
			addrs[i] = rt.Alloc(8)
			rt.StoreUint64(addrs[i], uint64(i)) // initial value i
		}
		rt.Tx(func(tx *Tx) {
			for i, v := range vals {
				tx.StoreUint64(addrs[i], v)
			}
		})
		// Simulate crash mid-mutate: log valid again, data scrambled.
		slot := rt.Arena().slot(0)
		crash := rt.Space().Clone()
		crash.WriteUint64(slot+slotValidOff, validMagic)
		for _, a := range addrs {
			crash.WriteUint64(a, ^uint64(0))
		}
		Recover(crash, rt.Arena())
		for i, a := range addrs {
			if crash.ReadUint64(a) != uint64(i) {
				return false // rollback must restore initial values
			}
		}
		// And the committed space holds the new values.
		for i, a := range addrs {
			if rt.Space().ReadUint64(a) != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLogSlotRotation(t *testing.T) {
	rt := newRT()
	a := rt.Alloc(8)
	for i := 0; i < LogSlots+2; i++ {
		rt.Tx(func(tx *Tx) { tx.StoreUint64(a, uint64(i)) })
	}
	if rt.LoadUint64(a) != uint64(LogSlots+1) {
		t.Fatal("slot rotation corrupted data")
	}
	// All slots invalid after commits.
	rep := Recover(rt.Space(), rt.Arena())
	if rep.ValidEntries != 0 {
		t.Fatalf("committed slots still valid: %+v", rep)
	}
}

func TestTxTooManyLinesPanics(t *testing.T) {
	rt := newRT()
	base := rt.AllocLines(maxLogLines + 1)
	defer func() {
		if recover() == nil {
			t.Error("oversized tx did not panic")
		}
	}()
	rt.Tx(func(tx *Tx) {
		for i := 0; i <= maxLogLines; i++ {
			tx.StoreUint64(base+mem.Addr(i*64), 1)
		}
	})
}

func TestTxBacksUpWholeLines(t *testing.T) {
	// Two stores into the same line back it up once, and rollback
	// restores bytes the transaction never stored to (they were
	// rewritten by the full-line writeback and would garble on a
	// counter mismatch).
	rt := newRT()
	a := rt.Alloc(64)
	rt.StoreUint64(a, 10)
	rt.StoreUint64(a+8, 20)
	rt.StoreUint64(a+16, 30) // never touched by the tx
	rt.Tx(func(tx *Tx) {
		tx.StoreUint64(a, 11)
		tx.StoreUint64(a+8, 21)
	})
	slot := rt.Arena().slot(0)
	if got := rt.Space().ReadUint64(slot + slotHeaderOff); got != 1 {
		t.Fatalf("backed-up lines = %d, want 1", got)
	}
	// Crash mid-mutate: whole line garbled.
	crash := rt.Space().Clone()
	crash.WriteUint64(slot+slotValidOff, validMagic)
	crash.WriteUint64(a, ^uint64(0))
	crash.WriteUint64(a+16, ^uint64(0)) // garbage in untouched bytes too
	Recover(crash, rt.Arena())
	if crash.ReadUint64(a) != 10 || crash.ReadUint64(a+8) != 20 || crash.ReadUint64(a+16) != 30 {
		t.Fatalf("rollback left %d %d %d, want 10 20 30",
			crash.ReadUint64(a), crash.ReadUint64(a+8), crash.ReadUint64(a+16))
	}
}

func TestTxModeString(t *testing.T) {
	if Undo.String() != "undo" || Redo.String() != "redo" {
		t.Fatalf("mode strings: %q %q", Undo.String(), Redo.String())
	}
}

func TestRedoTxAppliesWrites(t *testing.T) {
	rt := newRT()
	rt.SetTxMode(Redo)
	if rt.TxMode() != Redo {
		t.Fatal("mode not set")
	}
	a := rt.Alloc(64)
	rt.StoreUint64(a, 1)
	rt.Tx(func(tx *Tx) {
		tx.StoreUint64(a, 2)
		if tx.LoadUint64(a) != 2 {
			t.Error("redo tx does not read its own write")
		}
	})
	if rt.LoadUint64(a) != 2 {
		t.Fatal("redo tx write lost after commit")
	}
}

// TestRedoRecoveryRollsForward: a crash after the redo log's valid flag
// persisted but before the in-place apply completed must roll FORWARD to
// the new values.
func TestRedoRecoveryRollsForward(t *testing.T) {
	rt := newRT()
	rt.SetTxMode(Redo)
	a := rt.Alloc(128)
	rt.StoreUint64(a, 100)
	rt.StoreUint64(a+64, 200)
	rt.Tx(func(tx *Tx) {
		tx.StoreUint64(a, 111)
		tx.StoreUint64(a+64, 222)
	})
	// Resurrect the valid flag (crash mid-apply) and scramble the
	// half-applied home locations.
	slot := rt.Arena().slot(0)
	crashSpace := rt.Space().Clone()
	crashSpace.WriteUint64(slot+slotValidOff, validMagic)
	crashSpace.WriteUint64(a, 0xDEAD)
	crashSpace.WriteUint64(a+64, 0xBEEF)

	rep := Recover(crashSpace, rt.Arena())
	if rep.ValidEntries != 1 || rep.RolledForward != 1 || rep.RolledBack != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if got := crashSpace.ReadUint64(a); got != 111 {
		t.Fatalf("a = %d after roll-forward, want 111", got)
	}
	if got := crashSpace.ReadUint64(a + 64); got != 222 {
		t.Fatalf("a+64 = %d after roll-forward, want 222", got)
	}
}

// TestUndoVsRedoPayloads: the same transaction logs old values under undo
// and new values under redo.
func TestUndoVsRedoPayloads(t *testing.T) {
	runMode := func(m TxMode) uint64 {
		rt := newRT()
		rt.SetTxMode(m)
		a := rt.Alloc(64)
		rt.StoreUint64(a, 7)
		rt.Tx(func(tx *Tx) { tx.StoreUint64(a, 8) })
		slot := rt.Arena().slot(0)
		return rt.Space().ReadUint64(slot + slotDataOff)
	}
	if got := runMode(Undo); got != 7 {
		t.Fatalf("undo payload = %d, want old value 7", got)
	}
	if got := runMode(Redo); got != 8 {
		t.Fatalf("redo payload = %d, want new value 8", got)
	}
}

func TestRecoveryReportsKinds(t *testing.T) {
	rt := newRT()
	a := rt.Alloc(64)
	rt.Tx(func(tx *Tx) { tx.StoreUint64(a, 1) })
	slot := rt.Arena().slot(0)
	rt.Space().WriteUint64(slot+slotValidOff, validMagic)
	rep := Recover(rt.Space(), rt.Arena())
	if rep.RolledBack != 1 || rep.RolledForward != 0 {
		t.Fatalf("undo entry misclassified: %+v", rep)
	}
}
