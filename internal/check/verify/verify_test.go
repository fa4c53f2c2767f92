package verify_test

import (
	"bytes"
	"testing"

	"encnvm/internal/check/verify"
	"encnvm/internal/mem"
	"encnvm/internal/persist"
	"encnvm/internal/trace"
)

// Hand-built traces run against core 0's arena, whose log region
// [0, 0x20000) holds the log line and none of the heap lines.
var testArenas = []persist.Arena{persist.ArenaFor(0, 64<<20)}

const (
	lineA = mem.Addr(0x20000) // heap
	lineB = mem.Addr(0x20040) // heap, same counter group as lineA
	lineC = mem.Addr(0x30000) // heap, different counter group
	lineL = mem.Addr(0x0)     // log (seal line)
)

func wr(a mem.Addr) trace.Op   { return trace.Op{Kind: trace.Write, Addr: a} }
func wrCA(a mem.Addr) trace.Op { return trace.Op{Kind: trace.Write, Addr: a, CounterAtomic: true} }
func wrc(a mem.Addr, b byte) trace.Op {
	op := trace.Op{Kind: trace.Write, Addr: a}
	for i := range op.Line {
		op.Line[i] = b
	}
	return op
}
func clwb(a mem.Addr) trace.Op { return trace.Op{Kind: trace.Clwb, Addr: a} }
func ccwb(a mem.Addr) trace.Op { return trace.Op{Kind: trace.CCWB, Addr: a} }
func fence() trace.Op          { return trace.Op{Kind: trace.Sfence} }
func txb() trace.Op            { return trace.Op{Kind: trace.TxBegin} }
func txe() trace.Op            { return trace.Op{Kind: trace.TxEnd} }

func mkTrace(ops ...trace.Op) *trace.Trace { return trace.New(ops) }

func vopts() verify.Options { return verify.Options{Arenas: testArenas} }

// expectViolations asserts the result carries exactly the given
// (invariant, op index) pairs, in order.
func expectViolations(t *testing.T, res verify.Result, want ...[2]interface{}) {
	t.Helper()
	if len(res.Violations) != len(want) {
		t.Fatalf("got %d violations %v, want %d", len(res.Violations), res.Violations, len(want))
	}
	for i, w := range want {
		v := res.Violations[i]
		if v.Inv != w[0].(string) || v.OpIndex != w[1].(int) {
			t.Errorf("violation %d = %s at op %d, want %s at op %d", i, v.Inv, v.OpIndex, w[0], w[1])
		}
	}
}

func TestCleanPlainStore(t *testing.T) {
	res := verify.Verify(mkTrace(wr(lineA), clwb(lineA), ccwb(lineA), fence()), vopts())
	if !res.Clean() {
		t.Fatalf("unexpected violations: %v", res.Violations)
	}
	if res.Classes < 4 {
		t.Errorf("classes = %d, want >= 4 (each image-changing op opens one)", res.Classes)
	}
	if res.Epochs != 2 {
		t.Errorf("epochs = %d, want 2", res.Epochs)
	}
}

func TestCleanCounterAtomicStore(t *testing.T) {
	res := verify.Verify(mkTrace(wrCA(lineA), clwb(lineA), fence()), vopts())
	if !res.Clean() {
		t.Fatalf("unexpected violations: %v", res.Violations)
	}
}

// A bare store is unsafe at end of trace: its writeback may never happen.
func TestDurabilityUnflushed(t *testing.T) {
	res := verify.Verify(mkTrace(wr(lineA)), vopts())
	expectViolations(t, res, [2]interface{}{"V4", 0})
	if s := res.Violations[0].Schedule; s == nil || s.Kind != verify.KindDurability {
		t.Fatalf("want a durability schedule, got %+v", s)
	}
}

// Flushed and fenced data with a volatile counter still decrypts to
// garbage after a crash: not durable.
func TestDurabilityCounterVolatile(t *testing.T) {
	res := verify.Verify(mkTrace(wr(lineA), clwb(lineA), fence()), vopts())
	expectViolations(t, res, [2]interface{}{"V4", 2})
}

// An unfenced writeback pair is still in flight: not durable.
func TestDurabilityUnfenced(t *testing.T) {
	res := verify.Verify(mkTrace(wr(lineA), clwb(lineA), ccwb(lineA)), vopts())
	expectViolations(t, res, [2]interface{}{"V4", 2})
}

// Publishing with a counter-atomic store while the payload's data is
// volatile: V1 at the switch.
func TestSwitchDataVolatile(t *testing.T) {
	res := verify.Verify(mkTrace(
		wr(lineA),
		wrCA(lineC), clwb(lineC), fence(),
	), vopts())
	// V1 at the switch, plus the payload is also non-durable at end.
	expectViolations(t, res, [2]interface{}{"V1", 1}, [2]interface{}{"V4", 3})
	s := res.Violations[0].Schedule
	if s == nil || s.Kind != verify.KindConsistency || s.CrashOp != 1 {
		t.Fatalf("want a consistency schedule at op 1, got %+v", s)
	}
}

// Publishing while the payload's counter is not persisted: V2.
func TestSwitchCounterVolatile(t *testing.T) {
	res := verify.Verify(mkTrace(
		wr(lineA), clwb(lineA), fence(),
		wrCA(lineC), clwb(lineC), fence(),
	), vopts())
	expectViolations(t, res, [2]interface{}{"V2", 3}, [2]interface{}{"V4", 5})
}

// The full plain-store protocol before the switch: clean.
func TestSwitchAfterFullBarrier(t *testing.T) {
	res := verify.Verify(mkTrace(
		wr(lineA), clwb(lineA), ccwb(lineA), fence(),
		wrCA(lineC), clwb(lineC), fence(),
	), vopts())
	if !res.Clean() {
		t.Fatalf("unexpected violations: %v", res.Violations)
	}
}

// An in-place mutation before any log seal: V3.
func TestMutateBeforeSeal(t *testing.T) {
	res := verify.Verify(mkTrace(
		txb(),
		wr(lineA), clwb(lineA), ccwb(lineA), fence(),
		txe(),
	), vopts())
	expectViolations(t, res, [2]interface{}{"V3", 1})
	s := res.Violations[0].Schedule
	if s == nil || s.CrashOp != 1 || len(s.Land) != 1 || !s.Land[0].Evict {
		t.Fatalf("want an evict-at-store schedule, got %+v", s)
	}
}

// The paper's Figure-9 shape: seal durable before mutation, commit after
// the mutate barrier — clean.
func TestTransactionProtocolClean(t *testing.T) {
	res := verify.Verify(mkTrace(
		txb(),
		wrCA(lineL), clwb(lineL), fence(), // seal
		wr(lineA), clwb(lineA), ccwb(lineA), fence(), // mutate
		wrCA(lineL), clwb(lineL), fence(), // commit
		txe(),
	), vopts())
	if !res.Clean() {
		t.Fatalf("unexpected violations: %v", res.Violations)
	}
}

// A mutation after the seal store but before the seal is fenced: V3.
func TestMutateBeforeSealDurable(t *testing.T) {
	res := verify.Verify(mkTrace(
		txb(),
		wrCA(lineL), clwb(lineL), // no fence yet
		wr(lineA), clwb(lineA), ccwb(lineA), fence(),
		wrCA(lineL), clwb(lineL), fence(),
		txe(),
	), vopts())
	if res.Clean() {
		t.Fatal("unfenced seal not flagged")
	}
	if res.Violations[0].Inv != "V3" || res.Violations[0].OpIndex != 3 {
		t.Fatalf("want V3 at op 3, got %v", res.Violations[0])
	}
}

// Without a log classifier V3 is disabled, like the dynamic linter's R5.
func TestNoLogDisablesMutateCheck(t *testing.T) {
	res := verify.Verify(mkTrace(
		txb(),
		wr(lineA), clwb(lineA), ccwb(lineA), fence(),
		txe(),
	), verify.Options{})
	if !res.Clean() {
		t.Fatalf("unexpected violations: %v", res.Violations)
	}
}

// A structurally invalid trace draws V0 and nothing else.
func TestInvalidTrace(t *testing.T) {
	res := verify.Verify(mkTrace(txb(), txb(), txe(), txe()), vopts())
	expectViolations(t, res, [2]interface{}{"V0", 0})
}

// Counter-group aliasing: a counter writeback covers every line in its
// group, so flushing lineB's group also covers lineA.
func TestCounterGroupCoverage(t *testing.T) {
	res := verify.Verify(mkTrace(
		wr(lineA), wr(lineB),
		clwb(lineA), clwb(lineB),
		ccwb(lineB), // one group writeback covers both counters
		fence(),
	), vopts())
	if !res.Clean() {
		t.Fatalf("unexpected violations: %v", res.Violations)
	}
}

// Verification must be deterministic: identical traces give identical
// results, including schedule contents.
func TestDeterministic(t *testing.T) {
	build := func() verify.Result {
		return verify.Verify(mkTrace(
			wr(lineA), wr(lineB), wr(lineC),
			wrCA(lineL), clwb(lineL), fence(),
		), vopts())
	}
	a, b := build(), build()
	if len(a.Violations) != len(b.Violations) {
		t.Fatalf("nondeterministic violation count: %d vs %d", len(a.Violations), len(b.Violations))
	}
	for i := range a.Violations {
		va, vb := a.Violations[i], b.Violations[i]
		if va.Inv != vb.Inv || va.OpIndex != vb.OpIndex || va.Addr != vb.Addr || va.Message != vb.Message {
			t.Fatalf("nondeterministic violation %d: %v vs %v", i, va, vb)
		}
		if va.Schedule.String() != vb.Schedule.String() {
			t.Fatalf("nondeterministic schedule %d", i)
		}
	}
}

// BuildImage: a fully persisted line survives the crash intact.
func TestBuildImagePersisted(t *testing.T) {
	tr := mkTrace(wrc(lineA, 0xAB), clwb(lineA), ccwb(lineA), fence())
	space := verify.BuildImage(tr, &verify.Schedule{CrashOp: 3})
	got := space.ReadLine(lineA)
	if got[0] != 0xAB || got[63] != 0xAB {
		t.Fatalf("persisted line corrupted: %v", got[:8])
	}
}

// BuildImage: data persisted without its counter decrypts to garbage —
// deterministically, and to neither the old nor the new plaintext.
func TestBuildImageGarbled(t *testing.T) {
	tr := mkTrace(wrc(lineA, 0xAB), clwb(lineA), fence())
	sched := &verify.Schedule{CrashOp: 2}
	g1 := verify.BuildImage(tr, sched).ReadLine(lineA)
	g2 := verify.BuildImage(tr, sched).ReadLine(lineA)
	var want mem.Line
	for i := range want {
		want[i] = 0xAB
	}
	if bytes.Equal(g1[:], want[:]) {
		t.Fatal("counter-less line decrypted cleanly")
	}
	var zero mem.Line
	if bytes.Equal(g1[:], zero[:]) {
		t.Fatal("garbled line reads as never-written")
	}
	if !bytes.Equal(g1[:], g2[:]) {
		t.Fatal("garbling not deterministic")
	}
}

// BuildImage: an in-flight writeback lands only if the schedule says so.
func TestBuildImageLandSubset(t *testing.T) {
	tr := mkTrace(wrc(lineA, 0x11), wrc(lineB, 0x22), clwb(lineA), clwb(lineB))
	// Crash after both clwbs; only lineA's writeback (and counter) lands.
	sched := &verify.Schedule{CrashOp: 3, Land: []verify.LandEntry{
		{Addr: uint64(lineA)}, {Addr: uint64(lineA), Ctr: true},
	}}
	space := verify.BuildImage(tr, sched)
	if got := space.ReadLine(lineA); got[0] != 0x11 {
		t.Fatalf("landed line lost: %v", got[:4])
	}
	if got := space.ReadLine(lineB); got[0] == 0x22 {
		t.Fatal("dropped writeback landed anyway")
	}
}

// FinalImage applies every store.
func TestFinalImage(t *testing.T) {
	tr := mkTrace(wrc(lineA, 0x11), wrc(lineA, 0x22))
	if got := verify.FinalImage(tr).ReadLine(lineA); got[0] != 0x22 {
		t.Fatalf("final image = %v, want last store", got[:4])
	}
}
