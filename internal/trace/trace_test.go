package trace

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"encnvm/internal/mem"
)

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		Read: "read", Write: "write", Clwb: "clwb", Sfence: "sfence",
		CCWB: "ccwb", Compute: "compute", TxBegin: "txbegin", TxEnd: "txend",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(42).String() != "Kind(42)" {
		t.Errorf("unknown kind string = %q", Kind(42).String())
	}
}

func TestAppendAndCounts(t *testing.T) {
	tr := &Trace{}
	tr.Append(Op{Kind: Read, Addr: 0})
	tr.Append(Op{Kind: Write, Addr: 64})
	tr.Append(Op{Kind: Write, Addr: 128})
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	c := tr.Counts()
	if c[Read] != 1 || c[Write] != 2 {
		t.Fatalf("Counts = %v", c)
	}
}

func TestTransactions(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 3; i++ {
		tr.Append(Op{Kind: TxBegin})
		tr.Append(Op{Kind: Write, Addr: mem.Addr(i * 64)})
		tr.Append(Op{Kind: TxEnd})
	}
	if tr.Transactions() != 3 {
		t.Fatalf("Transactions = %d", tr.Transactions())
	}
}

// TestTransactionsUnbalanced pins Transactions = min(begins, ends) on
// unvalidated traces. Regression: the ends > begins arm used to return
// ends, overcounting complete pairs.
func TestTransactionsUnbalanced(t *testing.T) {
	moreEnds := &Trace{}
	moreEnds.Append(Op{Kind: TxEnd})
	moreEnds.Append(Op{Kind: TxBegin})
	moreEnds.Append(Op{Kind: TxEnd})
	moreEnds.Append(Op{Kind: TxEnd})
	if got := moreEnds.Transactions(); got != 1 {
		t.Fatalf("Transactions (3 ends, 1 begin) = %d, want 1", got)
	}

	moreBegins := &Trace{}
	moreBegins.Append(Op{Kind: TxBegin})
	moreBegins.Append(Op{Kind: TxEnd})
	moreBegins.Append(Op{Kind: TxBegin})
	if got := moreBegins.Transactions(); got != 1 {
		t.Fatalf("Transactions (2 begins, 1 end) = %d, want 1", got)
	}
}

func TestValidate(t *testing.T) {
	good := &Trace{}
	good.Append(Op{Kind: TxBegin})
	good.Append(Op{Kind: TxEnd})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}

	unclosed := &Trace{}
	unclosed.Append(Op{Kind: TxBegin})
	if unclosed.Validate() == nil {
		t.Fatal("unclosed tx accepted")
	}

	extra := &Trace{}
	extra.Append(Op{Kind: TxEnd})
	if extra.Validate() == nil {
		t.Fatal("TxEnd without TxBegin accepted")
	}

	zero := &Trace{}
	zero.Append(Op{Kind: Compute, Cycles: 0})
	if zero.Validate() == nil {
		t.Fatal("zero-cycle compute accepted")
	}
}

func TestFootprintLines(t *testing.T) {
	tr := &Trace{}
	tr.Append(Op{Kind: Read, Addr: 0})
	tr.Append(Op{Kind: Write, Addr: 63})  // same line as 0
	tr.Append(Op{Kind: Clwb, Addr: 64})   // second line
	tr.Append(Op{Kind: CCWB, Addr: 4096}) // counter op: not data footprint
	if got := tr.FootprintLines(); got != 2 {
		t.Fatalf("FootprintLines = %d, want 2", got)
	}
}

// Property: Counts sums to Len for arbitrary op sequences.
func TestPropertyCountsSumToLen(t *testing.T) {
	f := func(kinds []uint8) bool {
		tr := &Trace{}
		for _, k := range kinds {
			tr.Append(Op{Kind: Kind(k % 8), Cycles: 1})
		}
		total := 0
		for _, n := range tr.Counts() {
			total += n
		}
		return total == tr.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refCheck is the reference for Trace.Check: one full scan from op 0,
// kept apart from the incremental record it is compared with.
func refCheck(ops []Op) (int, error) {
	depth, ends := 0, 0
	for i := range ops {
		if err := ops[i].Validate(); err != nil {
			return 0, fmt.Errorf("trace: op %d: %w", i, err)
		}
		switch ops[i].Kind {
		case TxBegin:
			if depth++; depth > 1 {
				return 0, fmt.Errorf("trace: nested TxBegin at op %d", i)
			}
		case TxEnd:
			if depth--; depth < 0 {
				return 0, fmt.Errorf("trace: TxEnd without TxBegin at op %d", i)
			}
			ends++
		}
	}
	if depth != 0 {
		return ends, fmt.Errorf("trace: %d unclosed transactions", depth)
	}
	return ends, nil
}

// randomOp draws an op that is usually valid: transaction markers are
// common, so nesting and closing errors occur, and about one op in
// fifty is malformed. The malformed ones include every op a packed
// header cannot hold: kinds outside a byte, a write with cycles, and a
// compute or marker carrying a line.
func randomOp(rng *rand.Rand) Op {
	op := Op{Kind: Kind(rng.Intn(8))}
	switch op.Kind {
	case Read, Clwb, CCWB:
		op.Addr = mem.Addr(rng.Intn(64)) * mem.LineBytes
	case Write:
		op.Addr = mem.Addr(rng.Intn(4096))
		op.Line[0] = byte(rng.Intn(256))
		op.CounterAtomic = rng.Intn(4) == 0
	case Compute:
		op.Cycles = uint32(1 + rng.Intn(100))
	}
	if rng.Intn(50) == 0 {
		switch rng.Intn(7) {
		case 0:
			op.Kind = Kind(8 + rng.Intn(4))
		case 1:
			op.Cycles = 0
			op.Kind = Compute
		case 2:
			op.Addr |= 1 // unaligned for clwb/ccwb, an operand for markers
		case 3:
			op.Kind = Kind(256 + rng.Intn(1<<20))
		case 4:
			op.Kind = Kind(-1 - rng.Intn(1<<20))
		case 5:
			op.Kind = Write
			op.Line[63] = byte(1 + rng.Intn(255))
			op.Cycles = uint32(1 + rng.Intn(100))
		default:
			op.Kind = []Kind{Compute, Sfence, TxBegin, TxEnd}[rng.Intn(4)]
			op.Line[rng.Intn(mem.LineBytes)] = byte(1 + rng.Intn(255))
		}
	}
	return op
}

// TestCheckMatchesFullScan holds the incremental check record to a full
// scan, and the packed store to the ops it was given: on random op
// streams, valid and malformed, Check gives the same TxEnd count and
// error text after every batch of Appends, including Appends after an
// earlier Check; At and Ops return exactly the appended ops, and Head
// and Line their fields. An occasional long batch carries a stream
// across header and line chunks.
func TestCheckMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for prog := 0; prog < 500; prog++ {
		tr := &Trace{}
		var ops []Op
		for batch := rng.Intn(6); batch >= 0; batch-- {
			n := rng.Intn(12)
			if rng.Intn(20) == 0 {
				n = rng.Intn(3 * headChunk)
			}
			for ; n > 0; n-- {
				op := randomOp(rng)
				tr.Append(op)
				ops = append(ops, op)
			}
			if got := tr.Ops(); !slices.Equal(got, ops) {
				t.Fatalf("program %d: Ops() differs from the %d appended ops", prog, len(ops))
			}
			for i, op := range ops {
				if got := tr.At(i); got != op {
					t.Fatalf("program %d: At(%d) = %+v, appended %+v", prog, i, got, op)
				}
				k, addr, cycles, ca := tr.Head(i)
				if k != op.Kind || addr != op.Addr || cycles != op.Cycles || ca != op.CounterAtomic || tr.Line(i) != op.Line {
					t.Fatalf("program %d: Head(%d) = %v, %#x, %d, %v or its Line differs from the appended %+v", prog, i, k, addr, cycles, ca, op)
				}
			}
			if rng.Intn(3) == 0 {
				continue // append more before checking
			}
			gotEnds, gotErr := tr.Check()
			wantEnds, wantErr := refCheck(ops)
			if gotEnds != wantEnds || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("program %d, %d ops: Check = %d, %v; full scan = %d, %v",
					prog, len(ops), gotEnds, gotErr, wantEnds, wantErr)
			}
			if err := tr.Validate(); fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("program %d: Validate = %v, want %v", prog, err, wantErr)
			}
		}
	}
}

// TestSteadyStateAllocs pins Append at zero allocations while the
// current header chunk and line chunk have room: a growing trace
// allocates a chunk at a time and never copies an op.
func TestSteadyStateAllocs(t *testing.T) {
	tr := &Trace{}
	w := Op{Kind: Write, Addr: 64, Line: mem.Line{1}, CounterAtomic: true}
	tr.Append(w) // allocates the first header and line chunks
	// Each run appends one line and two headers; with the warm-up call
	// that fills the line chunk exactly.
	if got := testing.AllocsPerRun(lineChunk-2, func() {
		tr.Append(w)
		tr.Append(Op{Kind: Compute, Cycles: 3})
	}); got > 0 {
		t.Errorf("Append allocates %v times, pin 0", got)
	}
	if tr.nline != lineChunk || len(tr.lines) != 1 || len(tr.heads) != 1 {
		t.Fatalf("%d lines in %d line chunks, %d header chunks: the pin left its chunks", tr.nline, len(tr.lines), len(tr.heads))
	}
}

// TestConcurrentCheck shares one unchecked trace among goroutines that
// all check it, as replays on several workers do; run under -race.
func TestConcurrentCheck(t *testing.T) {
	for _, valid := range []bool{true, false} {
		tr := &Trace{}
		for i := 0; i < 1000; i++ {
			tr.Append(Op{Kind: TxBegin})
			tr.Append(Op{Kind: Write, Addr: mem.Addr(i) * mem.LineBytes})
			tr.Append(Op{Kind: TxEnd})
		}
		if !valid {
			tr.Append(Op{Kind: TxEnd})
		}
		wantEnds, wantErr := refCheck(tr.Ops())
		var wg sync.WaitGroup
		errs := make([]string, 4)
		for g := range errs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ends, err := tr.Check()
				if ends != wantEnds || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					errs[g] = fmt.Sprintf("goroutine %d: Check = %d, %v; want %d, %v", g, ends, err, wantEnds, wantErr)
				}
			}(g)
		}
		wg.Wait()
		for _, e := range errs {
			if e != "" {
				t.Error(e)
			}
		}
	}
}

// TestOpsIsACopy checks that editing what Ops returns leaves the trace
// alone, and that New builds a trace over the edited copy.
func TestOpsIsACopy(t *testing.T) {
	tr := &Trace{}
	tr.Append(Op{Kind: Read, Addr: 64})
	ops := tr.Ops()
	ops[0].Addr = 128
	if tr.At(0).Addr != 64 {
		t.Fatalf("editing Ops() changed the trace: addr %#x", tr.At(0).Addr)
	}
	if ed := New(ops); ed.Len() != 1 || ed.At(0).Addr != 128 {
		t.Fatalf("New(edited) = %d ops, op 0 %+v", ed.Len(), ed.At(0))
	}
}
