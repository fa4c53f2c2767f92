// Package mem defines the simulated physical address space: cache-line
// types, the data/counter region layout used by designs that store
// encryption counters separately, a functional NVMM image that records
// every device write with its completion timestamp (so a crash can be
// injected by cutting the timeline at any instant), a sparse
// byte-addressable space used for plaintext program memory, and Table,
// the dense per-line store that the image, the space, the counter
// state, device wear and replay keep their per-line state in.
package mem

import (
	"encoding/binary"
	"fmt"

	"encnvm/internal/sim"
)

// Line geometry. The whole simulator uses 64B lines; this mirrors
// config.Config.LineBytes but is fixed here so the type can be an array.
const (
	LineBytes = 64
	LineShift = 6
	// CounterBytes is the size of one encryption counter.
	CounterBytes = 8
	// CountersPerLine counters pack into one 64B counter line.
	CountersPerLine = LineBytes / CounterBytes
)

// Addr is a physical byte address.
type Addr uint64

// LineAddr returns the address of the cache line containing a.
func (a Addr) LineAddr() Addr { return a &^ (LineBytes - 1) }

// LineOffset returns a's offset within its cache line.
func (a Addr) LineOffset() int { return int(a & (LineBytes - 1)) }

// LineIndex returns the index of the line containing a.
func (a Addr) LineIndex() uint64 { return uint64(a) >> LineShift }

// Line is the contents of one 64-byte cache line.
type Line [LineBytes]byte

// XOR returns l ^ other, the core operation of counter-mode encryption.
func (l Line) XOR(other Line) Line {
	var out Line
	for i := range l {
		out[i] = l[i] ^ other[i]
	}
	return out
}

// Layout splits the physical address space into a data region and a counter
// region. Each 64B data line owns one 8B counter; the counter region
// therefore needs 1/8 of the data region, and the split of a total capacity
// T is data = T*8/9 (rounded down to a line boundary).
type Layout struct {
	Total       uint64 // total NVM capacity in bytes
	CounterBase Addr   // first byte of the counter region
}

// NewLayout returns the layout for an NVM module of the given capacity.
func NewLayout(total uint64) Layout {
	base := Addr(total / 9 * 8).LineAddr()
	return Layout{Total: total, CounterBase: base}
}

// IsData reports whether a falls in the data region.
func (l Layout) IsData(a Addr) bool { return a < l.CounterBase }

// IsCounter reports whether a falls in the counter region.
func (l Layout) IsCounter(a Addr) bool { return a >= l.CounterBase && uint64(a) < l.Total }

// CounterAddr returns the byte address of the 8B counter for the data line
// containing a.
func (l Layout) CounterAddr(a Addr) Addr {
	return l.CounterBase + Addr(a.LineIndex()*CounterBytes)
}

// CounterLine returns the address of the 64B counter line holding the
// counter for the data line containing a. Eight consecutive data lines
// share one counter line.
func (l Layout) CounterLine(a Addr) Addr { return l.CounterAddr(a).LineAddr() }

// CounterSlot returns which of the eight counters in its counter line
// belongs to the data line containing a.
func (l Layout) CounterSlot(a Addr) int { return int(a.LineIndex() % CountersPerLine) }

// DataLinesOf returns the eight data-line addresses whose counters live in
// the counter line cl. It is the inverse of CounterLine.
func (l Layout) DataLinesOf(cl Addr) [CountersPerLine]Addr {
	var out [CountersPerLine]Addr
	firstCounter := uint64(cl - l.CounterBase)
	firstLine := firstCounter / CounterBytes
	for i := range out {
		out[i] = Addr((firstLine + uint64(i)) << LineShift)
	}
	return out
}

// Validate checks that a is inside the module.
func (l Layout) Validate(a Addr) error {
	if uint64(a) >= l.Total {
		return fmt.Errorf("mem: address %#x beyond capacity %#x", a, l.Total)
	}
	return nil
}

// Write is one completed device write in the NVMM image log. Tag carries
// the encryption counter that produced Data (zero for counter-region lines
// and unencrypted designs); the crash harness uses it as ground truth to
// tell "garbled by a stale counter" apart from "never written". Sum is the
// plaintext checksum persisted with the line — the model of the spare ECC
// bits that Osiris-style counter recovery consults.
type Write struct {
	Line Addr
	Data Line
	At   sim.Time
	Tag  uint64
	Sum  uint16
}

// Image is the functional contents of the NVM module. Every device write is
// recorded with its completion time, so the image can be snapshotted as of
// any instant — that is how the crash harness models a power failure.
type Image struct {
	log     []Write
	cur     Table[Line]
	lastAt  sim.Time
	retain  bool
	logHint int
}

// NewImage returns an empty image that retains its write log (required
// for crash injection).
func NewImage() *Image {
	return &Image{retain: true}
}

// SetRetainLog controls whether the per-write history is kept. Timing-only
// runs (no crash injection) disable it to bound memory; SnapshotAt is then
// only meaningful at or after the final write.
func (im *Image) SetRetainLog(v bool) { im.retain = v }

// SetLogHint records an expected write-log size. The hint is consumed
// lazily on the first log growth — not eagerly — so that timing-only
// runs, which disable retention after machine build, never pay for a
// log they will not keep.
func (im *Image) SetLogHint(n int) { im.logHint = n }

// Apply records that the 64B line at lineAddr finished writing at time at.
// lineAddr must be line-aligned.
func (im *Image) Apply(lineAddr Addr, data Line, at sim.Time) {
	im.ApplyTagged(lineAddr, data, at, 0)
}

// ApplyTagged is Apply with a ground-truth encryption-counter tag and a
// persisted plaintext checksum (the ECC model).
func (im *Image) ApplyTagged(lineAddr Addr, data Line, at sim.Time, tag uint64) {
	im.ApplyFull(lineAddr, data, at, tag, 0)
}

// ApplyFull records a write with tag and checksum metadata.
func (im *Image) ApplyFull(lineAddr Addr, data Line, at sim.Time, tag uint64, sum uint16) {
	if lineAddr.LineOffset() != 0 {
		panic(fmt.Sprintf("mem: unaligned image write %#x", lineAddr))
	}
	if im.retain {
		n := len(im.log)
		if n == cap(im.log) {
			im.growLog()
		}
		im.log = im.log[:n+1]
		im.log[n] = Write{Line: lineAddr, Data: data, At: at, Tag: tag, Sum: sum}
	}
	if at > im.lastAt {
		im.lastAt = at
	}
	*im.cur.Ptr(lineAddr) = data
}

// growLog grows the write log out of line, honoring a pending SetLogHint
// on first growth, so ApplyFull itself stays allocation-free once the
// log has been sized to the trace.
func (im *Image) growLog() {
	newCap := 2 * cap(im.log)
	if newCap < im.logHint {
		newCap = im.logHint
	}
	if newCap < 1024 {
		newCap = 1024
	}
	log := make([]Write, len(im.log), newCap)
	copy(log, im.log)
	im.log = log
}

// Read returns the current (end-of-run) contents of a line.
func (im *Image) Read(lineAddr Addr) (Line, bool) {
	return im.cur.Get(lineAddr)
}

// Len returns the number of distinct lines ever written.
func (im *Image) Len() int { return im.cur.Len() }

// Writes returns the append-only write log. Callers must not mutate it.
func (im *Image) Writes() []Write { return im.log }

// LastWrite returns the time of the final write, or zero for an empty image.
func (im *Image) LastWrite() sim.Time { return im.lastAt }

// SnapshotAt returns the line contents as of time t: the latest write to
// each line with At <= t. This is the post-crash NVM state before any ADR
// drain is applied on top. With log retention disabled, only t >= the last
// write time is answerable (the current contents).
func (im *Image) SnapshotAt(t sim.Time) map[Addr]Line {
	if !im.retain {
		if t < im.lastAt {
			panic("mem: SnapshotAt before the end of a log-free image")
		}
		out := make(map[Addr]Line, im.cur.Len())
		im.cur.Each(func(a Addr, l *Line) { out[a] = *l })
		return out
	}
	out := make(map[Addr]Line)
	for _, w := range im.log {
		if w.At <= t {
			out[w.Line] = w.Data
		}
	}
	return out
}

// SnapshotWritesAt is SnapshotAt keeping the full write records (with
// ground-truth tags) instead of bare line contents.
func (im *Image) SnapshotWritesAt(t sim.Time) map[Addr]Write {
	out := make(map[Addr]Write)
	for _, w := range im.log {
		if w.At <= t {
			out[w.Line] = w
		}
	}
	return out
}

// Space is a sparse byte-addressable memory backed by 64B lines. The
// software stack (workloads, the persist runtime, and post-crash recovery)
// reads and writes plaintext through a Space. Reading a line makes it
// present, as writing does.
type Space struct {
	lines Table[Line]
}

// NewSpace returns an empty space.
func NewSpace() *Space { return &Space{} }

// ReadBytes copies n bytes starting at a into a fresh slice. Reads may span
// lines; unwritten memory reads as zero.
func (s *Space) ReadBytes(a Addr, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; {
		l := s.lines.Ptr(a + Addr(i))
		off := (a + Addr(i)).LineOffset()
		c := copy(out[i:], l[off:])
		i += c
	}
	return out
}

// WriteBytes stores b at address a, spanning lines as needed.
func (s *Space) WriteBytes(a Addr, b []byte) {
	for i := 0; i < len(b); {
		l := s.lines.Ptr(a + Addr(i))
		off := (a + Addr(i)).LineOffset()
		c := copy(l[off:], b[i:])
		i += c
	}
}

// ReadUint64 reads a little-endian uint64 at a.
func (s *Space) ReadUint64(a Addr) uint64 {
	return binary.LittleEndian.Uint64(s.ReadBytes(a, 8))
}

// WriteUint64 stores v little-endian at a.
func (s *Space) WriteUint64(a Addr, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.WriteBytes(a, b[:])
}

// ReadLine returns the full line containing a.
func (s *Space) ReadLine(a Addr) Line { return *s.lines.Ptr(a) }

// WriteLine replaces the full line containing a.
func (s *Space) WriteLine(a Addr, l Line) { *s.lines.Ptr(a) = l }

// Clone returns a deep copy of the space.
func (s *Space) Clone() *Space { return &Space{lines: s.lines.Clone()} }
