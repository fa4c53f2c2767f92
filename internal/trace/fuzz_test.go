package trace

import (
	"bytes"
	"testing"
)

// seedRecords returns one encoded record per op kind.
func seedRecords() [][]byte {
	var out [][]byte
	for _, op := range sampleOps() {
		rec := make([]byte, RecordBytes)
		EncodeOp(rec, &op)
		out = append(out, rec)
	}
	return out
}

// FuzzDecodeOp asserts the strict record decoder never panics and that
// every record it accepts re-encodes byte-identically.
func FuzzDecodeOp(f *testing.F) {
	for _, rec := range seedRecords() {
		f.Add(rec)
	}
	f.Add([]byte{})
	f.Add(make([]byte, RecordBytes-1))
	f.Add(bytes.Repeat([]byte{0xff}, RecordBytes))
	f.Fuzz(func(t *testing.T, data []byte) {
		var op Op
		if err := DecodeOp(data, &op); err != nil {
			return
		}
		var out [RecordBytes]byte
		EncodeOp(out[:], &op)
		if !bytes.Equal(out[:], data[:RecordBytes]) {
			t.Fatalf("accepted record does not round trip:\n in  %x\n out %x", data[:RecordBytes], out)
		}
	})
}

// FuzzDecodeTrace asserts the file decoder never panics and that every
// file it accepts re-serializes byte-identically via WriteTraces.
func FuzzDecodeTrace(f *testing.F) {
	var one bytes.Buffer
	if err := WriteTraces(&one, []*Trace{sampleTrace()}); err != nil {
		f.Fatal(err)
	}
	f.Add(one.Bytes())
	var multi bytes.Buffer
	if err := WriteTraces(&multi, []*Trace{sampleTrace(), {}, sampleTrace()}); err != nil {
		f.Fatal(err)
	}
	f.Add(multi.Bytes())
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x00}, headerFixedBytes))
	f.Add(append([]byte(Magic), 0xff, 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		traces, err := DecodeTraces(data)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteTraces(&out, traces); err != nil {
			t.Fatalf("accepted file failed to re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted file does not round trip: %d bytes in, %d out", len(data), out.Len())
		}
	})
}
