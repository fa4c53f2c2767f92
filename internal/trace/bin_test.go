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
	for c, got := range rs {
		want := traces[c]
		if got.Len() != want.Len() {
			t.Fatalf("core %d: len %d, want %d", c, got.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			if got.At(i) != want.At(i) {
				t.Fatalf("core %d op %d: %+v != %+v", c, i, got.At(i), want.At(i))
			}
		}
		ends, err := got.Check()
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

// TestDecodeTracesChecksTransactions checks that decoding applies the
// trace check: an unclosed or nested transaction in a well-encoded file
// is rejected with the error Trace.Check gives, and the first error in
// stream order wins over a bad record after it.
func TestDecodeTracesChecksTransactions(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  []Op
		want string
	}{
		{"unclosed", []Op{{Kind: TxBegin}}, "core 0: trace: 1 unclosed transactions"},
		{"nested", []Op{{Kind: TxBegin}, {Kind: TxBegin}, {Kind: TxEnd}, {Kind: TxEnd}},
			"core 0: trace: nested TxBegin at op 1"},
		{"stray end", []Op{{Kind: TxEnd}}, "core 0: trace: TxEnd without TxBegin at op 0"},
		{"nested before bad record", []Op{{Kind: TxBegin}, {Kind: TxBegin}, {Kind: 9}},
			"core 0: trace: nested TxBegin at op 1"},
		{"bad record inside open tx", []Op{{Kind: TxBegin}, {Kind: 9}},
			"core 0: trace: op 1: binary record: unknown kind 9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			buf.WriteString(Magic)
			binary.Write(&buf, binary.LittleEndian, uint32(1))
			binary.Write(&buf, binary.LittleEndian, uint64(len(tc.ops)))
			var rec [RecordBytes]byte
			for i := range tc.ops {
				EncodeOp(rec[:], &tc.ops[i])
				buf.Write(rec[:])
			}
			if _, err := DecodeTraces(buf.Bytes()); err == nil || err.Error() != tc.want {
				t.Fatalf("DecodeTraces: %v, want %q", err, tc.want)
			}
		})
	}
}

func TestReadTracesFileMissing(t *testing.T) {
	if _, err := ReadTracesFile(filepath.Join(t.TempDir(), "nope.bin")); !os.IsNotExist(err) {
		t.Fatalf("err = %v, want not-exist", err)
	}
}
