package check

import (
	"reflect"
	"testing"

	"encnvm/internal/mem"
	"encnvm/internal/persist"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// testArena is the arena all linter tests run against (core 0).
func testArena() persist.Arena { return persist.ArenaFor(0, 64<<20) }

// buildTrace runs one workload functionally and returns its trace.
func buildTrace(t *testing.T, w workloads.Workload, p workloads.Params) *trace.Trace {
	t.Helper()
	rt := persist.NewRuntime(testArena())
	rt.SetLegacy(p.Legacy)
	rt.SetTxMode(p.TxMode)
	w.Setup(rt, p)
	w.Run(rt, p)
	if err := rt.Trace().Validate(); err != nil {
		t.Fatalf("%s: invalid trace: %v", w.Name(), err)
	}
	return rt.Trace()
}

func testParams() workloads.Params {
	return workloads.Params{Seed: 7, Items: 64, Ops: 24, OpsPerTx: 4}
}

// Op constructors for hand-built traces.
func wr(a mem.Addr) trace.Op   { return trace.Op{Kind: trace.Write, Addr: a} }
func wrCA(a mem.Addr) trace.Op { return trace.Op{Kind: trace.Write, Addr: a, CounterAtomic: true} }
func clwb(a mem.Addr) trace.Op { return trace.Op{Kind: trace.Clwb, Addr: a} }
func ccwb(a mem.Addr) trace.Op { return trace.Op{Kind: trace.CCWB, Addr: a} }
func fence() trace.Op          { return trace.Op{Kind: trace.Sfence} }
func txb() trace.Op            { return trace.Op{Kind: trace.TxBegin} }
func txe() trace.Op            { return trace.Op{Kind: trace.TxEnd} }

func mkTrace(ops ...trace.Op) *trace.Trace { return &trace.Trace{Ops: ops} }

// checkWith lints tr using the test arena for log classification and
// keeps only the diagnostics of the rule whose ID is given (or all of
// them for "all"). Rules do not interact, so filtering the output is
// linting with that rule alone.
func checkWith(t *testing.T, tr *trace.Trace, ruleID string) []Diagnostic {
	t.Helper()
	ds := Check(tr, Options{Arenas: []persist.Arena{testArena()}})
	if ruleID == "all" {
		return ds
	}
	var out []Diagnostic
	for _, d := range ds {
		if d.Rule == ruleID {
			out = append(out, d)
		}
	}
	return out
}

// expectDiags asserts that the diagnostics are exactly the given
// (rule, op index) pairs, in order.
func expectDiags(t *testing.T, ds []Diagnostic, want ...[2]interface{}) {
	t.Helper()
	if len(ds) != len(want) {
		t.Fatalf("got %d diagnostics %v, want %d", len(ds), ds, len(want))
	}
	for i, w := range want {
		if ds[i].Rule != w[0].(string) || ds[i].OpIndex != w[1].(int) {
			t.Errorf("diag %d = %s at op %d, want %s at op %d", i, ds[i].Rule, ds[i].OpIndex, w[0], w[1])
		}
	}
}

// All shipped workloads, in both transaction modes, must lint clean: the
// trace the runtime emits is exactly the paper's §4.2–§4.3 protocol.
func TestWorkloadTracesClean(t *testing.T) {
	for _, w := range workloads.Extended() {
		for _, mode := range []persist.TxMode{persist.Undo, persist.Redo} {
			p := testParams()
			p.TxMode = mode
			tr := buildTrace(t, w, p)
			if ds := checkWith(t, tr, "all"); len(ds) != 0 {
				t.Errorf("%s (%v): %d diagnostics on a clean trace, first: %s",
					w.Name(), mode, len(ds), ds[0])
			}
		}
	}
}

// A legacy trace — software written for unencrypted NVMM, with no
// counter-atomic version switch — must NOT lint clean: it is the paper's
// §2.2 motivating failure, and R5 sees the in-place mutations running
// with no counter-atomically valid log entry.
func TestLegacyTraceFlagged(t *testing.T) {
	p := testParams()
	p.Legacy = true
	tr := buildTrace(t, &workloads.BTree{}, p)
	byRule := ByRule(checkWith(t, tr, "all"))
	if len(byRule["R5"]) == 0 {
		t.Fatalf("legacy btree trace produced no R5 diagnostics: %v", byRule)
	}
}

func TestR1StoreNeverPersisted(t *testing.T) {
	h := testArena().HeapBase()

	// Store with no clwb before TxEnd.
	ds := checkWith(t, mkTrace(txb(), wr(h), txe()), "R1")
	expectDiags(t, ds, [2]interface{}{"R1", 1})

	// Store clwb'd but never fenced before TxEnd.
	ds = checkWith(t, mkTrace(txb(), wr(h), clwb(h), txe()), "R1")
	expectDiags(t, ds, [2]interface{}{"R1", 1})

	// Untransactional store never persisted by end of trace.
	ds = checkWith(t, mkTrace(wr(h)), "R1")
	expectDiags(t, ds, [2]interface{}{"R1", 0})

	// Full persist sequence is clean; so is an overwrite whose final
	// store persists even though the first never individually did.
	ds = checkWith(t, mkTrace(txb(), wr(h), clwb(h), fence(), txe()), "R1")
	expectDiags(t, ds)
	ds = checkWith(t, mkTrace(wr(h), wr(h), clwb(h), fence()), "R1")
	expectDiags(t, ds)
}

func TestR2WritebackNeverFenced(t *testing.T) {
	h := testArena().HeapBase()

	ds := checkWith(t, mkTrace(wr(h), clwb(h)), "R2")
	expectDiags(t, ds, [2]interface{}{"R2", 1})

	ds = checkWith(t, mkTrace(ccwb(h)), "R2")
	expectDiags(t, ds, [2]interface{}{"R2", 0})

	// A fence clears earlier writebacks; only the trailing one is flagged.
	ds = checkWith(t, mkTrace(wr(h), clwb(h), fence(), clwb(h)), "R2")
	expectDiags(t, ds, [2]interface{}{"R2", 3})

	ds = checkWith(t, mkTrace(wr(h), clwb(h), ccwb(h), fence()), "R2")
	expectDiags(t, ds)
}

func TestR3CounterNotWrittenBack(t *testing.T) {
	h := testArena().HeapBase()
	h2 := h + 16*mem.LineBytes // different line and counter group

	// Data persisted but counters never written back: the classic
	// encrypted-NVMM bug — the switch publishes lines whose counters
	// are still volatile.
	ds := checkWith(t, mkTrace(wr(h), clwb(h), fence(), wrCA(h2)), "R3")
	expectDiags(t, ds, [2]interface{}{"R3", 3})

	// Written back but not fenced.
	ds = checkWith(t, mkTrace(wr(h), clwb(h), ccwb(h), wrCA(h2)), "R3")
	expectDiags(t, ds, [2]interface{}{"R3", 3})

	// Full §4.3 protocol is clean.
	ds = checkWith(t, mkTrace(wr(h), clwb(h), ccwb(h), fence(), wrCA(h2)), "R3")
	expectDiags(t, ds)

	// A CounterAtomic store never dirties its own counter group: two
	// switches in a row are fine as far as counters are concerned.
	ds = checkWith(t, mkTrace(wrCA(h), clwb(h), fence(), wrCA(h)), "R3")
	expectDiags(t, ds)
}

func TestR4SwitchBeforePayloadPersisted(t *testing.T) {
	h := testArena().HeapBase()
	h2 := h + 16*mem.LineBytes

	// Payload still dirty at the switch.
	ds := checkWith(t, mkTrace(wr(h), wrCA(h2)), "R4")
	expectDiags(t, ds, [2]interface{}{"R4", 1})

	// Payload flushed but the fence was dropped.
	ds = checkWith(t, mkTrace(wr(h), clwb(h), ccwb(h), wrCA(h2)), "R4")
	expectDiags(t, ds, [2]interface{}{"R4", 3})

	// Complete barrier before the switch is clean.
	ds = checkWith(t, mkTrace(wr(h), clwb(h), ccwb(h), fence(), wrCA(h2)), "R4")
	expectDiags(t, ds)

	// The switch line's own earlier store is superseded, not published.
	ds = checkWith(t, mkTrace(wrCA(h2), wrCA(h2)), "R4")
	expectDiags(t, ds)
}

func TestR5MutationBeforeValidSwitch(t *testing.T) {
	a := testArena()
	h, lg := a.HeapBase(), a.LogBase()

	// The legal shape: log entry built and persisted, valid switch
	// persisted, then the in-place mutation.
	legal := mkTrace(txb(),
		wr(lg), clwb(lg), ccwb(lg), fence(),
		wrCA(lg), clwb(lg), fence(),
		wr(h), clwb(h), ccwb(h), fence(),
		txe())
	expectDiags(t, checkWith(t, legal, "R5"))

	// Mutation before any valid switch.
	early := mkTrace(txb(),
		wr(h), clwb(h), ccwb(h), fence(),
		wr(lg), clwb(lg), ccwb(lg), fence(),
		wrCA(lg), clwb(lg), fence(),
		txe())
	expectDiags(t, checkWith(t, early, "R5"), [2]interface{}{"R5", 1})

	// Mutation after the switch but before its persist barrier.
	unfenced := mkTrace(txb(),
		wr(lg), clwb(lg), ccwb(lg), fence(),
		wrCA(lg),
		wr(h),
		clwb(lg), fence(), clwb(h), ccwb(h), fence(),
		txe())
	expectDiags(t, checkWith(t, unfenced, "R5"), [2]interface{}{"R5", 6})

	// Outside a transaction R5 does not apply (shadow updates are the
	// linked list's legitimate log-free protocol).
	expectDiags(t, checkWith(t, mkTrace(wr(h), clwb(h), ccwb(h), fence()), "R5"))
}

// Malformed ops and unbalanced transactions surface as R0 and are kept
// out of the state machine.
func TestMalformedOps(t *testing.T) {
	h := testArena().HeapBase()
	bad := mkTrace(
		trace.Op{Kind: trace.Clwb, Addr: h, Cycles: 3}, // clwb carrying cycles
		trace.Op{Kind: trace.Compute},                  // zero-cycle compute
		txe(),                                          // TxEnd without TxBegin
	)
	ds := Check(bad, Options{})
	expectDiags(t, ds,
		[2]interface{}{"R0", 0}, [2]interface{}{"R0", 1}, [2]interface{}{"R0", 2})

	// A transaction still open at the end of the trace is unbalanced too:
	// one R0 at its TxBegin, while the rules still lint its body.
	open := mkTrace(txb(), wr(h), clwb(h), ccwb(h), fence())
	ds = Check(open, Options{Arenas: []persist.Arena{testArena()}})
	expectDiags(t, ds, [2]interface{}{"R0", 0}, [2]interface{}{"R5", 1})
}

// Without arenas, R5 stays silent (it cannot classify log writes) while
// R1–R4 still work.
func TestNoArenaDisablesR5Only(t *testing.T) {
	h := mem.Addr(1 << 30)
	tr := mkTrace(txb(), wr(h), clwb(h), ccwb(h), fence(), txe())
	if ds := Check(tr, Options{}); len(ds) != 0 {
		t.Fatalf("unexpected diagnostics without arenas: %v", ds)
	}
	tr = mkTrace(txb(), wr(h), txe())
	ds := Check(tr, Options{})
	expectDiags(t, ds, [2]interface{}{"R1", 1})
}

// The linter is a pure function of the trace: same input, same output.
func TestDeterministic(t *testing.T) {
	p := testParams()
	p.Legacy = true // legacy traces produce many diagnostics to compare
	tr := buildTrace(t, &workloads.Queue{}, p)
	a := checkWith(t, tr, "all")
	b := checkWith(t, tr, "all")
	if !reflect.DeepEqual(a, b) {
		t.Fatal("diagnostics differ between identical runs")
	}
}

func TestRuleDocs(t *testing.T) {
	docs := RuleDocs()
	if len(docs) != 5 {
		t.Fatalf("RuleDocs returned %d entries", len(docs))
	}
	for i, d := range docs {
		want := []string{"R1", "R2", "R3", "R4", "R5"}[i]
		if d[:2] != want {
			t.Errorf("doc %d = %q, want prefix %s", i, d, want)
		}
	}
}
