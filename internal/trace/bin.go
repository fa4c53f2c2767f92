package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"encnvm/internal/mem"
)

// Binary trace IR: a flat, fixed-width, little-endian record encoding
// of the per-core op streams. One file holds one multi-core trace set,
// and decoding it yields one checked Trace per core.
//
// File layout:
//
//	offset  size       field
//	0       8          magic "ENCNVMT1"
//	8       4          ncores  (u32 LE)
//	12      8*ncores   per-core record counts (u64 LE each)
//	...     80*total   records, core 0 .. ncores-1 back to back
//
// Record layout (RecordBytes = 80 bytes per op):
//
//	offset  size  field
//	0       1     kind (Read=0 .. TxEnd=7)
//	1       1     flags (bit 0 = CounterAtomic; other bits must be 0)
//	2       2     reserved (must be 0)
//	4       4     cycles (u32 LE)
//	8       8     addr   (u64 LE)
//	16      64    line contents
//
// Decoding is strict: unknown kinds, unknown flag bits, nonzero
// reserved bytes, and length mismatches are errors, never silently
// ignored — the format cannot drift without tests noticing.
const (
	// RecordBytes is the fixed encoded size of one Op.
	RecordBytes = 80
	// Magic opens every binary trace file.
	Magic = "ENCNVMT1"
	// headerFixedBytes is the magic plus the core count.
	headerFixedBytes = len(Magic) + 4
)

// Record field offsets, pinned by TestBinaryWireShape.
const (
	recKindOff   = 0
	recFlagsOff  = 1
	recCyclesOff = 4
	recAddrOff   = 8
	recLineOff   = 16
)

const flagCounterAtomic = 1 << 0

// EncodeOp encodes op into dst, which must hold at least RecordBytes.
// The op must be structurally valid (Op.Validate); kinds outside the
// byte range would not round-trip.
func EncodeOp(dst []byte, op *Op) {
	_ = dst[RecordBytes-1]
	dst[recKindOff] = byte(op.Kind)
	var flags byte
	if op.CounterAtomic {
		flags |= flagCounterAtomic
	}
	dst[recFlagsOff] = flags
	dst[2], dst[3] = 0, 0
	binary.LittleEndian.PutUint32(dst[recCyclesOff:recCyclesOff+4], op.Cycles)
	binary.LittleEndian.PutUint64(dst[recAddrOff:recAddrOff+8], uint64(op.Addr))
	copy(dst[recLineOff:RecordBytes], op.Line[:])
}

// DecodeOp strictly decodes one record from b into dst. Short input,
// unknown kind bytes, unknown flag bits, and nonzero reserved bytes
// are rejected. On success the decoded op re-encodes byte-identically.
func DecodeOp(b []byte, dst *Op) error {
	if len(b) < RecordBytes {
		return fmt.Errorf("binary record: %d bytes, want %d", len(b), RecordBytes)
	}
	if b[recKindOff] > byte(TxEnd) {
		return fmt.Errorf("binary record: unknown kind %d", b[recKindOff])
	}
	if b[recFlagsOff]&^byte(flagCounterAtomic) != 0 {
		return fmt.Errorf("binary record: unknown flag bits %#x", b[recFlagsOff])
	}
	if b[2]|b[3] != 0 {
		return fmt.Errorf("binary record: nonzero reserved bytes")
	}
	dst.Kind = Kind(b[recKindOff])
	dst.CounterAtomic = b[recFlagsOff]&flagCounterAtomic != 0
	dst.Cycles = binary.LittleEndian.Uint32(b[recCyclesOff : recCyclesOff+4])
	dst.Addr = mem.Addr(binary.LittleEndian.Uint64(b[recAddrOff : recAddrOff+8]))
	copy(dst.Line[:], b[recLineOff:RecordBytes])
	return nil
}

// decodeCore strict-decodes one core's record region into a checked
// trace, appending each record straight into the store. Each record is
// checked as soon as it is decoded, so the error reported is the first
// one in stream order.
func decodeCore(rec []byte) (*Trace, error) {
	t := &Trace{}
	var op Op
	for i := 0; i < len(rec)/RecordBytes; i++ {
		if err := DecodeOp(rec[i*RecordBytes:], &op); err != nil {
			return nil, fmt.Errorf("trace: op %d: %w", i, err)
		}
		t.Append(op)
		if err := t.scan(); err != nil {
			return nil, err
		}
	}
	if _, err := t.Check(); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteTraces encodes a multi-core trace set to w in the binary file
// format. Every trace is validated first; a malformed stream must not
// be serialized.
func WriteTraces(w io.Writer, traces []*Trace) error {
	if err := ValidateAll(traces); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(traces)))
	if _, err := bw.Write(u32[:]); err != nil {
		return err
	}
	var u64 [8]byte
	for _, tr := range traces {
		binary.LittleEndian.PutUint64(u64[:], uint64(tr.Len()))
		if _, err := bw.Write(u64[:]); err != nil {
			return err
		}
	}
	var rec [RecordBytes]byte
	for _, tr := range traces {
		for i := 0; i < tr.Len(); i++ {
			op := tr.At(i)
			EncodeOp(rec[:], &op)
			if _, err := bw.Write(rec[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteTracesFile records a trace set to path.
func WriteTracesFile(path string, traces []*Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTraces(f, traces); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// DecodeTraces parses a binary trace file image into one checked trace
// per core. The total length must match the header exactly.
func DecodeTraces(data []byte) ([]*Trace, error) {
	if len(data) < headerFixedBytes {
		return nil, fmt.Errorf("trace: binary file: %d bytes, want at least %d", len(data), headerFixedBytes)
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("trace: binary file: bad magic %q", data[:len(Magic)])
	}
	ncores := binary.LittleEndian.Uint32(data[len(Magic):headerFixedBytes])
	rest := data[headerFixedBytes:]
	if uint64(len(rest)) < 8*uint64(ncores) {
		return nil, fmt.Errorf("trace: binary file: truncated header for %d cores", ncores)
	}
	counts := make([]uint64, ncores)
	maxRecs := uint64(len(data)) / RecordBytes
	var total uint64
	for i := range counts {
		counts[i] = binary.LittleEndian.Uint64(rest[8*i : 8*i+8])
		if counts[i] > maxRecs || total+counts[i] > maxRecs {
			return nil, fmt.Errorf("trace: binary file: record counts exceed file size")
		}
		total += counts[i]
	}
	rec := rest[8*ncores:]
	if uint64(len(rec)) != total*RecordBytes {
		return nil, fmt.Errorf("trace: binary file: %d record bytes, header says %d", len(rec), total*RecordBytes)
	}
	out := make([]*Trace, ncores)
	off := uint64(0)
	for i, n := range counts {
		t, err := decodeCore(rec[off*RecordBytes : (off+n)*RecordBytes])
		if err != nil {
			return nil, fmt.Errorf("core %d: %w", i, err)
		}
		out[i] = t
		off += n
	}
	return out, nil
}

// ReadTracesFile loads and checks a binary trace file.
func ReadTracesFile(path string) ([]*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeTraces(data)
}
