package workloads

import (
	"testing"
	"testing/quick"

	"encnvm/internal/mem"
	"encnvm/internal/persist"
	"encnvm/internal/trace"
)

const testArena = 64 << 20

func runWorkload(t *testing.T, w Workload, p Params) *persist.Runtime {
	t.Helper()
	rt := persist.NewRuntime(persist.ArenaFor(0, testArena))
	w.Setup(rt, p)
	w.Run(rt, p)
	if err := rt.Trace().Validate(); err != nil {
		t.Fatalf("%s: invalid trace: %v", w.Name(), err)
	}
	return rt
}

func TestRegistry(t *testing.T) {
	if len(All()) != 5 {
		t.Fatalf("expected 5 workloads, got %d", len(All()))
	}
	for _, w := range All() {
		got, err := ByName(w.Name())
		if err != nil || got.Name() != w.Name() {
			t.Errorf("ByName(%q) failed: %v", w.Name(), err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
	if len(Names()) != 5 {
		t.Error("Names() wrong length")
	}
}

func TestAllWorkloadsRunAndValidate(t *testing.T) {
	p := Params{Seed: 42, Items: 64, Ops: 64}
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			rt := runWorkload(t, w, p)
			if err := w.Validate(rt.Space(), rt.Arena()); err != nil {
				t.Fatalf("post-run validation: %v", err)
			}
			// The measured run must contain transactions.
			if rt.Trace().Transactions() != 64 {
				t.Fatalf("transactions = %d, want 64", rt.Trace().Transactions())
			}
		})
	}
}

func TestValidatePassesOnUnpublished(t *testing.T) {
	for _, w := range All() {
		rt := persist.NewRuntime(persist.ArenaFor(0, testArena))
		if err := w.Validate(rt.Space(), rt.Arena()); err != nil {
			t.Errorf("%s: unpublished structure failed validation: %v", w.Name(), err)
		}
	}
}

func TestOpsPerTxBatching(t *testing.T) {
	p := Params{Seed: 1, Items: 32, Ops: 32, OpsPerTx: 8}
	for _, w := range All() {
		rt := runWorkload(t, w, p)
		if got := rt.Trace().Transactions(); got != 4 {
			t.Errorf("%s: %d transactions with OpsPerTx=8, want 4", w.Name(), got)
		}
		if err := w.Validate(rt.Space(), rt.Arena()); err != nil {
			t.Errorf("%s: %v", w.Name(), err)
		}
	}
}

func TestDeterministicTraces(t *testing.T) {
	p := Params{Seed: 7, Items: 32, Ops: 32}
	for _, w := range All() {
		a := runWorkload(t, w, p).Trace()
		b := runWorkload(t, w, p).Trace()
		if a.Len() != b.Len() {
			t.Errorf("%s: trace lengths differ: %d vs %d", w.Name(), a.Len(), b.Len())
			continue
		}
		for i := 0; i < a.Len(); i++ {
			if a.At(i) != b.At(i) {
				t.Errorf("%s: op %d differs", w.Name(), i)
				break
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	// ArraySwap is seed-sensitive (random indices); the traces of two
	// seeds must differ.
	a := runWorkload(t, &ArraySwap{}, Params{Seed: 1, Items: 64, Ops: 32}).Trace()
	b := runWorkload(t, &ArraySwap{}, Params{Seed: 2, Items: 64, Ops: 32}).Trace()
	same := a.Len() == b.Len()
	if same {
		identical := true
		for i := 0; i < a.Len(); i++ {
			if a.At(i) != b.At(i) {
				identical = false
				break
			}
		}
		if identical {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

// --- Corruption detection: each validator must notice targeted damage.

func corrupt(t *testing.T, w Workload, damage func(rt *persist.Runtime)) {
	t.Helper()
	rt := runWorkload(t, w, Params{Seed: 3, Items: 64, Ops: 32})
	damage(rt)
	if err := w.Validate(rt.Space(), rt.Arena()); err == nil {
		t.Fatalf("%s: validator missed injected corruption", w.Name())
	}
}

func TestArraySwapDetectsCorruption(t *testing.T) {
	corrupt(t, &ArraySwap{}, func(rt *persist.Runtime) {
		arr := rt.Arena().HeapBase() + mem.LineBytes
		rt.Space().WriteUint64(arr, 999999) // duplicate value
	})
}

func TestQueueDetectsCorruption(t *testing.T) {
	corrupt(t, &Queue{}, func(rt *persist.Runtime) {
		meta := rt.Arena().HeapBase()
		head := rt.Space().ReadUint64(meta + qHeadOff)
		rt.Space().WriteUint64(mem.Addr(head), 0xBAD) // clobber node value
	})
	corrupt(t, &Queue{}, func(rt *persist.Runtime) {
		meta := rt.Arena().HeapBase()
		rt.Space().WriteUint64(meta+qHeadOff, uint64(rt.Arena().End())+64) // wild head
	})
}

func TestHashTableDetectsCorruption(t *testing.T) {
	corrupt(t, &HashTable{}, func(rt *persist.Runtime) {
		meta := rt.Arena().HeapBase()
		rt.Space().WriteUint64(meta+htCountOff, 12345) // count mismatch
	})
	corrupt(t, &HashTable{}, func(rt *persist.Runtime) {
		// Clobber the first nonempty bucket's node key: wrong bucket.
		meta := rt.Arena().HeapBase()
		nb := rt.Space().ReadUint64(meta + htBucketsOff)
		for b := uint64(0); b < nb; b++ {
			node := rt.Space().ReadUint64(htBucketAddr(meta, b))
			if node != 0 {
				rt.Space().WriteUint64(mem.Addr(node), ^uint64(0))
				return
			}
		}
		t.Fatal("no nonempty bucket found")
	})
}

func TestBTreeDetectsCorruption(t *testing.T) {
	corrupt(t, &BTree{}, func(rt *persist.Runtime) {
		meta := rt.Arena().HeapBase()
		root := mem.Addr(rt.Space().ReadUint64(meta + btRootOff))
		// Reverse the first two keys: sortedness violated.
		k0 := rt.Space().ReadUint64(root + btKeysOff)
		k1 := rt.Space().ReadUint64(root + btKeysOff + 8)
		rt.Space().WriteUint64(root+btKeysOff, k1)
		rt.Space().WriteUint64(root+btKeysOff+8, k0)
	})
	corrupt(t, &BTree{}, func(rt *persist.Runtime) {
		meta := rt.Arena().HeapBase()
		rt.Space().WriteUint64(meta+btRootOff, uint64(rt.Arena().End())+640)
	})
}

func TestRBTreeDetectsCorruption(t *testing.T) {
	corrupt(t, &RBTree{}, func(rt *persist.Runtime) {
		meta := rt.Arena().HeapBase()
		root := mem.Addr(rt.Space().ReadUint64(meta + rbRootOff))
		rt.Space().WriteUint64(root+rbValOff, 0xBAD) // value tag broken
	})
	corrupt(t, &RBTree{}, func(rt *persist.Runtime) {
		meta := rt.Arena().HeapBase()
		root := mem.Addr(rt.Space().ReadUint64(meta + rbRootOff))
		rt.Space().WriteUint64(root+rbColorOff, rbRed) // red root
	})
}

// --- Structure-specific behaviour.

func TestBTreeGrowsInDepth(t *testing.T) {
	// Enough inserts to force several root splits.
	rt := runWorkload(t, &BTree{}, Params{Seed: 5, Items: 500, Ops: 100})
	meta := rt.Arena().HeapBase()
	root := mem.Addr(rt.Space().ReadUint64(meta + btRootOff))
	if rt.Space().ReadUint64(root+btLeafOff) != 0 {
		t.Fatal("root still a leaf after 600 inserts")
	}
	if err := (&BTree{}).Validate(rt.Space(), rt.Arena()); err != nil {
		t.Fatal(err)
	}
}

func TestRBTreeCountMatches(t *testing.T) {
	rt := runWorkload(t, &RBTree{}, Params{Seed: 5, Items: 300, Ops: 100})
	meta := rt.Arena().HeapBase()
	if got := rt.Space().ReadUint64(meta + rbCountOff); got != 400 {
		t.Fatalf("count = %d, want 400", got)
	}
}

func TestQueueDrainsToEmpty(t *testing.T) {
	// A queue set up empty and never enqueued stays trivially valid.
	rt := persist.NewRuntime(persist.ArenaFor(0, testArena))
	(&Queue{}).Setup(rt, Params{Seed: 1, Items: 0, Ops: 0, OpsPerTx: 1, ComputeCycles: 1})
	if err := (&Queue{}).Validate(rt.Space(), rt.Arena()); err != nil {
		t.Fatal(err)
	}
}

func TestTracesContainPersistencyOps(t *testing.T) {
	// Every workload's run phase must exercise the full primitive set:
	// clwb, ccwb, sfence, and CounterAtomic stores.
	for _, w := range All() {
		rt := runWorkload(t, w, Params{Seed: 9, Items: 32, Ops: 16})
		c := rt.Trace().Counts()
		for _, k := range []trace.Kind{trace.Clwb, trace.CCWB, trace.Sfence} {
			if c[k] == 0 {
				t.Errorf("%s: no %v ops in trace", w.Name(), k)
			}
		}
		ca := 0
		for _, op := range rt.Trace().Ops() {
			if op.Kind == trace.Write && op.CounterAtomic {
				ca++
			}
		}
		if ca == 0 {
			t.Errorf("%s: no CounterAtomic stores", w.Name())
		}
	}
}

// Property: for any seed, every workload's committed state validates —
// the functional structures are correct under arbitrary operation mixes.
func TestPropertyWorkloadsValidateAnySeed(t *testing.T) {
	f := func(seed int64) bool {
		p := Params{Seed: seed, Items: 48, Ops: 48}
		for _, w := range All() {
			rt := persist.NewRuntime(persist.ArenaFor(0, testArena))
			w.Setup(rt, p)
			w.Run(rt, p)
			if err := w.Validate(rt.Space(), rt.Arena()); err != nil {
				t.Logf("%s seed %d: %v", w.Name(), seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: every undo-log rollback of the last transaction restores a
// valid structure. We simulate "crash right after prepare" by reverting
// the last tx with persist.Recover on a clone.
func TestPropertyRollbackRestoresValidity(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			rt := persist.NewRuntime(persist.ArenaFor(0, testArena))
			p := Params{Seed: 11, Items: 48, Ops: 1}
			w.Setup(rt, p)
			preRun := rt.Space().Clone()
			w.Run(rt, p)

			// Force the last tx's log entry valid again and garble the
			// mutated lines, as a mid-mutate crash would.
			crash := rt.Space().Clone()
			// Slot 0 was used by the single tx.
			slotValid := rt.Arena().LogBase()
			crash.WriteBytes(slotValid, crash.ReadBytes(slotValid, 8)) // no-op guard
			crash.WriteUint64(slotValid, 0x56414C49447E7E01)
			persist.Recover(crash, rt.Arena())
			if err := w.Validate(crash, rt.Arena()); err != nil {
				t.Fatalf("rolled-back state invalid: %v", err)
			}
			// The rollback should restore the pre-run image for all
			// heap lines the tx touched; spot-check the meta line.
			if crash.ReadLine(rt.Arena().HeapBase()) != preRun.ReadLine(rt.Arena().HeapBase()) {
				t.Fatal("meta line not restored to pre-transaction state")
			}
		})
	}
}

func TestLinkedListWorkload(t *testing.T) {
	w := &LinkedList{}
	rt := runWorkload(t, w, Params{Seed: 3, Items: 32, Ops: 24})
	if err := w.Validate(rt.Space(), rt.Arena()); err != nil {
		t.Fatal(err)
	}
	// Log-free protocol: no transactions, one CA store per insert.
	if rt.Trace().Transactions() != 0 {
		t.Fatalf("linkedlist emitted %d transactions; the protocol is log-free", rt.Trace().Transactions())
	}
	ca := 0
	for _, op := range rt.Trace().Ops() {
		if op.Kind == trace.Write && op.CounterAtomic {
			ca++
		}
	}
	// One publication per setup + one per insert.
	if ca != 1+24 {
		t.Fatalf("CA stores = %d, want 25", ca)
	}
	// Count matches inserts + initial population.
	meta := rt.Arena().HeapBase()
	if got := rt.Space().ReadUint64(meta + llCountOff); got != 16+24 {
		t.Fatalf("count = %d, want 40", got)
	}
}

func TestLinkedListDetectsCorruption(t *testing.T) {
	w := &LinkedList{}
	rt := runWorkload(t, w, Params{Seed: 3, Items: 32, Ops: 8})
	meta := rt.Arena().HeapBase()
	head := mem.Addr(rt.Space().ReadUint64(meta + llHeadOff))
	rt.Space().WriteUint64(head, 0xBAD)
	if err := w.Validate(rt.Space(), rt.Arena()); err == nil {
		t.Fatal("corrupt node value accepted")
	}

	rt = runWorkload(t, w, Params{Seed: 3, Items: 32, Ops: 8})
	rt.Space().WriteUint64(meta+llHeadOff, uint64(rt.Arena().End())+128)
	if err := w.Validate(rt.Space(), rt.Arena()); err == nil {
		t.Fatal("wild head pointer accepted")
	}
}

func TestExtendedRegistry(t *testing.T) {
	if len(Extended()) != 6 {
		t.Fatalf("extended workloads = %d, want 6", len(Extended()))
	}
	if _, err := ByName("linkedlist"); err != nil {
		t.Fatal(err)
	}
}

// Validate rejects each negative size and accepts zero, which means
// "use the default".
func TestParamsValidate(t *testing.T) {
	if err := (Params{}).Validate(); err != nil {
		t.Errorf("zero Params: %v", err)
	}
	if err := (Params{Items: 8, Ops: 4, OpsPerTx: 2}).Validate(); err != nil {
		t.Errorf("positive Params: %v", err)
	}
	for _, p := range []Params{{Items: -1}, {Ops: -1}, {OpsPerTx: -1}} {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v accepted", p)
		}
	}
}
