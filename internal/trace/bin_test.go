package trace

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"encnvm/internal/mem"
)

// sampleOps returns one valid op of every kind.
func sampleOps() []Op {
	var line mem.Line
	for i := range line {
		line[i] = byte(i * 7)
	}
	return []Op{
		{Kind: Read, Addr: 0x1234},
		{Kind: Write, Addr: 0x40, Line: line, CounterAtomic: true},
		{Kind: Clwb, Addr: 0x80},
		{Kind: Sfence},
		{Kind: CCWB, Addr: 0x1000},
		{Kind: Compute, Cycles: 77},
		{Kind: TxBegin},
		{Kind: TxEnd},
	}
}

// sampleTrace wraps sampleOps into a valid trace (tx markers bracket
// the memory ops so Validate passes).
func sampleTrace() *Trace {
	ops := sampleOps()
	tr := &Trace{}
	tr.Append(Op{Kind: TxBegin})
	for _, op := range ops {
		if op.Kind == TxBegin || op.Kind == TxEnd {
			continue
		}
		tr.Append(op)
	}
	tr.Append(Op{Kind: TxEnd})
	return tr
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, op := range sampleOps() {
		var rec [RecordBytes]byte
		EncodeOp(rec[:], &op)
		var got Op
		if err := DecodeOp(rec[:], &got); err != nil {
			t.Fatalf("%v: decode: %v", op.Kind, err)
		}
		if got != op {
			t.Fatalf("%v: round trip mismatch:\n got %+v\nwant %+v", op.Kind, got, op)
		}
		var again [RecordBytes]byte
		EncodeOp(again[:], &got)
		if again != rec {
			t.Fatalf("%v: re-encode not byte-identical", op.Kind)
		}
	}
}

// TestBinaryWireShape pins the record layout: any change to offsets,
// sizes, or flag bits is a format break and must fail here first.
func TestBinaryWireShape(t *testing.T) {
	if RecordBytes != 80 {
		t.Fatalf("RecordBytes = %d, want 80", RecordBytes)
	}
	if Magic != "ENCNVMT1" {
		t.Fatalf("Magic = %q", Magic)
	}
	var line mem.Line
	for i := range line {
		line[i] = byte(255 - i)
	}
	op := Op{Kind: Write, Addr: 0x1122334455667788, Line: line, CounterAtomic: true}
	var rec [RecordBytes]byte
	EncodeOp(rec[:], &op)
	if rec[0] != 1 { // kind byte: Write = 1
		t.Errorf("kind byte = %d, want 1", rec[0])
	}
	if rec[1] != 1 { // flags byte: bit 0 = CounterAtomic
		t.Errorf("flags byte = %d, want 1", rec[1])
	}
	if rec[2] != 0 || rec[3] != 0 {
		t.Errorf("reserved bytes = %d,%d, want 0,0", rec[2], rec[3])
	}
	if got := binary.LittleEndian.Uint64(rec[8:16]); got != 0x1122334455667788 {
		t.Errorf("addr field = %#x", got)
	}
	if !bytes.Equal(rec[16:80], line[:]) {
		t.Errorf("line payload not at offset 16")
	}
	cmp := Op{Kind: Compute, Cycles: 0xdeadbeef}
	EncodeOp(rec[:], &cmp)
	if got := binary.LittleEndian.Uint32(rec[4:8]); got != 0xdeadbeef {
		t.Errorf("cycles field = %#x", got)
	}
	if kinds := []Kind{Read, Write, Clwb, Sfence, CCWB, Compute, TxBegin, TxEnd}; len(kinds) == 8 {
		for want, k := range kinds {
			var r [RecordBytes]byte
			EncodeOp(r[:], &Op{Kind: k, Cycles: 1})
			if r[0] != byte(want) {
				t.Errorf("kind %v encodes as %d, want %d", k, r[0], want)
			}
		}
	}
}

func TestDecodeOpStrict(t *testing.T) {
	var rec [RecordBytes]byte
	op := Op{Kind: Sfence}
	EncodeOp(rec[:], &op)
	var dst Op

	if err := DecodeOp(rec[:RecordBytes-1], &dst); err == nil {
		t.Error("short record accepted")
	}
	bad := rec
	bad[0] = 8 // one past TxEnd
	if err := DecodeOp(bad[:], &dst); err == nil {
		t.Error("unknown kind accepted")
	}
	bad = rec
	bad[1] = 0x02 // unknown flag bit
	if err := DecodeOp(bad[:], &dst); err == nil {
		t.Error("unknown flag bit accepted")
	}
	bad = rec
	bad[2] = 1
	if err := DecodeOp(bad[:], &dst); err == nil {
		t.Error("nonzero reserved byte accepted")
	}
	bad = rec
	bad[3] = 0x80
	if err := DecodeOp(bad[:], &dst); err == nil {
		t.Error("nonzero reserved byte accepted")
	}
}

func TestWriteReadTracesFile(t *testing.T) {
	tr0 := sampleTrace()
	tr1 := &Trace{}
	tr1.Append(Op{Kind: Read, Addr: 0x40})
	traces := []*Trace{tr0, tr1, {}}

	path := filepath.Join(t.TempDir(), "trace.bin")
	if err := WriteTracesFile(path, traces); err != nil {
		t.Fatal(err)
	}
	rs, err := ReadTracesFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(traces) {
		t.Fatalf("decoded %d cores, want %d", len(rs), len(traces))
	}
	for c, r := range rs {
		got := Materialize(r)
		want := traces[c]
		if got.Len() != want.Len() {
			t.Fatalf("core %d: len %d, want %d", c, got.Len(), want.Len())
		}
		for i := range want.Ops {
			if got.Ops[i] != want.Ops[i] {
				t.Fatalf("core %d op %d: %+v != %+v", c, i, got.Ops[i], want.Ops[i])
			}
		}
		ends, err := r.Check()
		if err != nil {
			t.Fatalf("core %d: Check: %v", c, err)
		}
		if wantEnds, _ := want.Check(); ends != wantEnds {
			t.Fatalf("core %d: Check counts %d TxEnds, the trace %d", c, ends, wantEnds)
		}
	}
}

func TestWriteTracesRejectsInvalid(t *testing.T) {
	bad := &Trace{}
	bad.Append(Op{Kind: TxBegin})
	var buf bytes.Buffer
	if err := WriteTraces(&buf, []*Trace{bad}); err == nil {
		t.Fatal("unclosed-transaction trace serialized")
	}
}

func TestDecodeTracesStrict(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraces(&buf, []*Trace{sampleTrace()}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := DecodeTraces(nil); err == nil {
		t.Error("empty file accepted")
	}
	bad := append([]byte{}, good...)
	bad[0] = 'X'
	if _, err := DecodeTraces(bad); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := DecodeTraces(good[:len(good)-1]); err == nil {
		t.Error("truncated file accepted")
	}
	if _, err := DecodeTraces(append(append([]byte{}, good...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	bad = append([]byte{}, good...)
	binary.LittleEndian.PutUint64(bad[12:20], 1<<60) // absurd record count
	if _, err := DecodeTraces(bad); err == nil {
		t.Error("oversized record count accepted")
	}
	bad = append([]byte{}, good...)
	bad[headerFixedBytes+8] = 8 // first record kind -> unknown
	if _, err := DecodeTraces(bad); err == nil {
		t.Error("unknown kind in body accepted")
	}
}

// TestNewBinReaderValidates checks construction-time structural
// validation matches Trace.Validate.
func TestNewBinReaderValidates(t *testing.T) {
	unclosed := make([]byte, RecordBytes)
	EncodeOp(unclosed, &Op{Kind: TxBegin})
	if _, err := NewBinReader(unclosed); err == nil {
		t.Error("unclosed transaction accepted")
	}
	if _, err := NewBinReader(make([]byte, RecordBytes-1)); err == nil {
		t.Error("ragged stream length accepted")
	}
	nested := make([]byte, 2*RecordBytes)
	EncodeOp(nested[:RecordBytes], &Op{Kind: TxBegin})
	EncodeOp(nested[RecordBytes:], &Op{Kind: TxBegin})
	if _, err := NewBinReader(nested); err == nil {
		t.Error("nested TxBegin accepted")
	}
}

// TestBinReaderOpAllocs pins the zero-allocation decode contract of
// the replay hot path.
func TestBinReaderOpAllocs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraces(&buf, []*Trace{sampleTrace()}); err != nil {
		t.Fatal(err)
	}
	rs, err := DecodeTraces(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	var op Op
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < r.Len(); i++ {
			r.Op(i, &op)
		}
	})
	if allocs != 0 {
		t.Fatalf("BinReader.Op allocates %.1f per sweep, want 0", allocs)
	}
}

func TestSourceHelpers(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteTraces(&buf, []*Trace{tr}); err != nil {
		t.Fatal(err)
	}
	rs, err := DecodeTraces(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Source{tr, rs[0]} {
		if got, err := s.Check(); got != 1 || err != nil {
			t.Errorf("Check() = %d, %v, want 1 TxEnd", got, err)
		}
		if got, want := TransactionsOf(s), tr.Transactions(); got != want {
			t.Errorf("TransactionsOf = %d, want %d", got, want)
		}
		if got, want := FootprintLinesOf(s), tr.FootprintLines(); got != want {
			t.Errorf("FootprintLinesOf = %d, want %d", got, want)
		}
		counts := CountsOf(s)
		for k, n := range tr.Counts() {
			if counts[k] != n {
				t.Errorf("CountsOf[%v] = %d, want %d", k, counts[k], n)
			}
		}
	}
}

func TestReadTracesFileMissing(t *testing.T) {
	if _, err := ReadTracesFile(filepath.Join(t.TempDir(), "nope.bin")); !os.IsNotExist(err) {
		t.Fatalf("err = %v, want not-exist", err)
	}
}
