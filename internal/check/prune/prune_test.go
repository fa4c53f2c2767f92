package prune_test

import (
	"reflect"
	"testing"

	"encnvm/internal/check/prune"
	"encnvm/internal/mem"
	"encnvm/internal/trace"
)

const (
	lineA = mem.Addr(0x20000)
	lineB = mem.Addr(0x20040)
	lineC = mem.Addr(0x30000)
)

func wr(a mem.Addr) trace.Op   { return trace.Op{Kind: trace.Write, Addr: a} }
func rd(a mem.Addr) trace.Op   { return trace.Op{Kind: trace.Read, Addr: a} }
func clwb(a mem.Addr) trace.Op { return trace.Op{Kind: trace.Clwb, Addr: a} }
func ccwb(a mem.Addr) trace.Op { return trace.Op{Kind: trace.CCWB, Addr: a} }
func fence() trace.Op          { return trace.Op{Kind: trace.Sfence} }
func comp() trace.Op           { return trace.Op{Kind: trace.Compute, Cycles: 8} }
func txb() trace.Op            { return trace.Op{Kind: trace.TxBegin} }
func txe() trace.Op            { return trace.Op{Kind: trace.TxEnd} }

func mkTrace(ops ...trace.Op) *trace.Trace { return trace.New(ops) }

func mustCompute(t *testing.T, tr *trace.Trace) *prune.Partition {
	t.Helper()
	p, err := prune.Compute(tr, prune.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The partition must tile the gap space contiguously, open classes only
// at persist-relevant ops, and merge everything else.
func TestPartitionTilesGaps(t *testing.T) {
	tr := mkTrace(
		rd(lineA), comp(), // gaps 0..2 share the initial class
		wr(lineA),                 // opens
		rd(lineB), comp(), comp(), // merged into wr's class
		clwb(lineA), ccwb(lineA), fence(), // each opens
		txb(), txe(), // merged into the fence's class
	)
	p := mustCompute(t, tr)
	if p.Ops != tr.Len() || p.Gaps != tr.Len()+1 {
		t.Fatalf("partition header = %+v", p)
	}
	next := 0
	covered := 0
	for i, c := range p.Classes {
		if c.Index != i || c.Gaps[0] != next {
			t.Fatalf("class %d = %+v, want contiguous from %d", i, c, next)
		}
		if c.Representative != c.Gaps[0] {
			t.Errorf("class %d representative %d, want first gap %d", i, c.Representative, c.Gaps[0])
		}
		next = c.Gaps[1]
		covered += c.Size()
	}
	if next != p.Gaps || covered != p.Gaps {
		t.Fatalf("classes cover %d/%d gaps ending at %d", covered, p.Gaps, next)
	}
	var bounds []string
	for _, c := range p.Classes {
		bounds = append(bounds, c.Boundary)
	}
	want := []string{"start", "write", "clwb", "ccwb", "sfence"}
	if !reflect.DeepEqual(bounds, want) {
		t.Fatalf("class boundaries = %v, want %v", bounds, want)
	}
	// The reads/computes after wr(lineA) merged into its class.
	if got := p.Classes[1].Size(); got != 4 {
		t.Errorf("write class covers %d gaps, want 4 (write + read + 2 computes)", got)
	}
	if got := p.Classes[4].Size(); got != 3 {
		t.Errorf("sfence class covers %d gaps, want 3 (sfence + 2 tx markers)", got)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	tr := mkTrace(wr(lineA), wr(lineB), clwb(lineA), clwb(lineB), ccwb(lineB), fence(), wr(lineC))
	a, b := mustCompute(t, tr), mustCompute(t, tr)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic partition:\n%+v\n%+v", a, b)
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("hash differs for identical partitions")
	}
}

func TestCheckAcceptsAndRejects(t *testing.T) {
	tr := mkTrace(wr(lineA), clwb(lineA), ccwb(lineA), fence())
	p := mustCompute(t, tr)
	if err := prune.Check(tr, p, prune.Options{}); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}

	tamper := func(mut func(q *prune.Partition)) error {
		q := mustCompute(t, tr)
		mut(q)
		return prune.Check(tr, q, prune.Options{})
	}
	if err := tamper(func(q *prune.Partition) { q.Ops++ }); err == nil {
		t.Error("wrong op count accepted")
	}
	if err := tamper(func(q *prune.Partition) { q.Classes[1].Gaps[1]++ }); err == nil {
		t.Error("overlapping gap tiling accepted")
	}
	if err := tamper(func(q *prune.Partition) { q.Classes[2].Boundary = "sfence" }); err == nil {
		t.Error("wrong class boundary accepted")
	}
	if err := tamper(func(q *prune.Partition) {
		q.Classes[0].Representative = q.Classes[0].Gaps[1]
	}); err == nil {
		t.Error("out-of-range representative accepted")
	}
	// A partition of a different trace with the same length is rejected.
	other := mkTrace(wr(lineA), rd(lineA), ccwb(lineA), fence())
	if err := prune.Check(other, p, prune.Options{}); err == nil {
		t.Error("partition of another trace accepted")
	}
	// A different in-range representative is a valid choice, not tampering.
	wide := mkTrace(wr(lineA), rd(lineB), rd(lineC))
	pw := mustCompute(t, wide)
	pw.Classes[1].Representative = pw.Classes[1].Gaps[1] - 1
	if err := prune.Check(wide, pw, prune.Options{}); err != nil {
		t.Errorf("alternative representative rejected: %v", err)
	}
}

// A structurally broken trace has no trustworthy class structure.
func TestComputeRejectsInvalidTrace(t *testing.T) {
	if _, err := prune.Compute(mkTrace(txb(), txb(), txe(), txe()), prune.Options{}); err == nil {
		t.Fatal("invalid trace partitioned")
	}
}
