package verify_test

import (
	"testing"

	"encnvm/internal/check/verify"
	"encnvm/internal/trace"
)

func vmodel(m verify.Model) verify.Options {
	return verify.Options{Arenas: testArenas, Model: &m}
}

// The explicit default model must give identical verdicts to a nil
// Options.Model on traces that exercise every rule.
func TestModelNilEquivalence(t *testing.T) {
	for i, tr := range []*trace.Trace{
		mkTrace(wr(lineA), clwb(lineA), ccwb(lineA), fence()),
		mkTrace(wr(lineA), clwb(lineA), fence()),
		mkTrace(wr(lineA), wrCA(lineC), clwb(lineC), fence()),
		mkTrace(txb(), wrCA(lineL), clwb(lineL), fence(), wr(lineA), clwb(lineA), ccwb(lineA), fence(), txe()),
	} {
		legacy := verify.Verify(tr, vopts())
		modeled := verify.Verify(tr, vmodel(verify.Model{}))
		if len(legacy.Violations) != len(modeled.Violations) {
			t.Fatalf("trace %d: default model diverges: legacy %v vs modeled %v",
				i, legacy.Violations, modeled.Violations)
		}
		for j := range legacy.Violations {
			if legacy.Violations[j].Inv != modeled.Violations[j].Inv ||
				legacy.Violations[j].OpIndex != modeled.Violations[j].OpIndex {
				t.Fatalf("trace %d violation %d: %v vs %v",
					i, j, legacy.Violations[j], modeled.Violations[j])
			}
		}
	}
}

// A counter-free engine (plaintext, co-located, stop-loss) never garbles:
// the counter-volatile durability failure disappears, while a genuinely
// unflushed line still trips V4.
func TestModelCounterFree(t *testing.T) {
	m := verify.Model{CounterFree: true}
	res := verify.Verify(mkTrace(wr(lineA), clwb(lineA), fence()), vmodel(m))
	if !res.Clean() {
		t.Fatalf("counter-free engine should not need a ccwb: %v", res.Violations)
	}
	res = verify.Verify(mkTrace(wr(lineA)), vmodel(m))
	expectViolations(t, res, [2]interface{}{"V4", 0})
}

// An engine that forces every write counter-atomic (FCA) persists data
// and counter together: clwb+fence alone is durable.
func TestModelForceAtomic(t *testing.T) {
	m := verify.Model{AtomicWrite: func(bool) bool { return true }}
	res := verify.Verify(mkTrace(wr(lineA), clwb(lineA), fence()), vmodel(m))
	if !res.Clean() {
		t.Fatalf("force-atomic engine leaves no separate counter risk: %v", res.Violations)
	}
}

// An unordered ccwb (Ideal) never makes a counter definitely persistent:
// the exact protocol that is clean under SCA garbles here.
func TestModelUnorderedCCWB(t *testing.T) {
	tr := mkTrace(
		wr(lineA), clwb(lineA), ccwb(lineA), fence(),
		wrCA(lineC), clwb(lineC), fence(),
	)
	if res := verify.Verify(tr, vopts()); !res.Clean() {
		t.Fatalf("baseline SCA run should be clean: %v", res.Violations)
	}
	m := verify.Model{CCWBUnordered: true}
	res := verify.Verify(tr, vmodel(m))
	if res.Clean() {
		t.Fatal("unordered ccwb must leave the counter volatile")
	}
	if res.Violations[0].Inv != "V2" {
		t.Fatalf("want V2 garble at the switch, got %v", res.Violations)
	}
}

// An engine that drops the CA annotation (co-located designs) still has
// the seal detected from the software protocol: V3 ordering holds via
// the seal line's own durability, tracked counter-free.
func TestModelDropCAStillSealAware(t *testing.T) {
	m := verify.Model{
		AtomicWrite: func(bool) bool { return false },
		CounterFree: true,
	}
	// Mutation before the seal is flushed: V3 regardless of engine.
	res := verify.Verify(mkTrace(txb(), wrCA(lineL), wr(lineA), txe()), vmodel(m))
	found := false
	for _, v := range res.Violations {
		if v.Inv == "V3" {
			found = true
		}
	}
	if !found {
		t.Fatalf("want V3 for mutation before durable seal, got %v", res.Violations)
	}
}

func TestInvariantsCatalog(t *testing.T) {
	inv := verify.Invariants()
	if len(inv) != 6 {
		t.Fatalf("want 6 invariants, got %d", len(inv))
	}
	for i, want := range []string{"V0", "V1", "V2", "V3", "V4", "V5"} {
		if inv[i].ID != want || inv[i].Doc == "" {
			t.Errorf("invariant %d = %q (doc %q), want %s with doc", i, inv[i].ID, inv[i].Doc, want)
		}
	}
}

// A tree-protected engine whose metadata travels with the counter write
// (BMT): the SCA-clean publish protocol stays clean, because the fence
// that makes the counter definite makes the ancestor path definite too.
func TestModelTreeProtectedClean(t *testing.T) {
	m := verify.Model{TreeProtected: true, TreePathWithCounter: true}
	tr := mkTrace(
		wr(lineA), clwb(lineA), ccwb(lineA), fence(),
		wrCA(lineC), clwb(lineC), fence(),
	)
	if res := verify.Verify(tr, vmodel(m)); !res.Clean() {
		t.Fatalf("ordered tree-path writeback should satisfy V5: %v", res.Violations)
	}
}

// A tree-protected engine that never writes the ancestor path back: the
// switch publishes a line whose tree nodes are volatile — V5, and only
// V5 (data and counter themselves are durable).
func TestModelTreePathDropped(t *testing.T) {
	m := verify.Model{TreeProtected: true}
	tr := mkTrace(
		wr(lineA), clwb(lineA), ccwb(lineA), fence(),
		wrCA(lineC), clwb(lineC), fence(),
	)
	res := verify.Verify(tr, vmodel(m))
	expectViolations(t, res, [2]interface{}{"V5", 4})
}

// Tree-path writes emitted but never fence-ordered: same V5 as dropping
// them — the path never becomes definitely persistent.
func TestModelTreePathUnordered(t *testing.T) {
	m := verify.Model{TreeProtected: true, TreePathWithCounter: true, TreePathUnordered: true}
	tr := mkTrace(
		wr(lineA), clwb(lineA), ccwb(lineA), fence(),
		wrCA(lineC), clwb(lineC), fence(),
	)
	res := verify.Verify(tr, vmodel(m))
	expectViolations(t, res, [2]interface{}{"V5", 4})
}

// A CounterAtomic store's own writeback must carry the tree path too:
// the CA publish pattern (no ccwb at all) stays clean under BMT.
func TestModelTreePathWithCAWriteback(t *testing.T) {
	m := verify.Model{TreeProtected: true, TreePathWithCounter: true}
	tr := mkTrace(wrCA(lineA), clwb(lineA), fence(), wrCA(lineC), clwb(lineC), fence())
	if res := verify.Verify(tr, vmodel(m)); !res.Clean() {
		t.Fatalf("CA writeback carries the path; want clean, got %v", res.Violations)
	}
}
