package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"encnvm/internal/sim"
)

func TestAddrHelpers(t *testing.T) {
	a := Addr(0x1234)
	if a.LineAddr() != 0x1200 {
		t.Errorf("LineAddr = %#x", a.LineAddr())
	}
	if a.LineOffset() != 0x34 {
		t.Errorf("LineOffset = %#x", a.LineOffset())
	}
	if a.LineIndex() != 0x48 {
		t.Errorf("LineIndex = %#x", a.LineIndex())
	}
}

func TestLineXOR(t *testing.T) {
	var a, b Line
	for i := range a {
		a[i] = byte(i)
		b[i] = 0xFF
	}
	c := a.XOR(b)
	for i := range c {
		if c[i] != byte(i)^0xFF {
			t.Fatalf("XOR wrong at %d", i)
		}
	}
	// XOR is its own inverse.
	if a.XOR(b).XOR(b) != a {
		t.Fatal("double XOR not identity")
	}
}

func TestLayoutRegions(t *testing.T) {
	l := NewLayout(8 << 30)
	if l.CounterBase%LineBytes != 0 {
		t.Fatalf("counter base %#x unaligned", l.CounterBase)
	}
	// The counter region must be big enough for one 8B counter per data line.
	dataLines := uint64(l.CounterBase) / LineBytes
	counterSpace := l.Total - uint64(l.CounterBase)
	if counterSpace < dataLines*CounterBytes {
		t.Fatalf("counter region %d too small for %d data lines", counterSpace, dataLines)
	}
	if !l.IsData(0) || l.IsCounter(0) {
		t.Error("address 0 misclassified")
	}
	if l.IsData(l.CounterBase) || !l.IsCounter(l.CounterBase) {
		t.Error("counter base misclassified")
	}
}

func TestCounterMapping(t *testing.T) {
	l := NewLayout(8 << 30)
	// Line 0's counter is the first 8 bytes of the counter region.
	if got := l.CounterAddr(0); got != l.CounterBase {
		t.Errorf("CounterAddr(0) = %#x", got)
	}
	// Lines 0..7 share counter line 0 with slots 0..7.
	for i := 0; i < 8; i++ {
		a := Addr(i * LineBytes)
		if l.CounterLine(a) != l.CounterBase {
			t.Errorf("CounterLine(line %d) = %#x", i, l.CounterLine(a))
		}
		if l.CounterSlot(a) != i {
			t.Errorf("CounterSlot(line %d) = %d", i, l.CounterSlot(a))
		}
	}
	// Line 8 rolls to the next counter line.
	if l.CounterLine(8*LineBytes) != l.CounterBase+LineBytes {
		t.Errorf("CounterLine(line 8) = %#x", l.CounterLine(8*LineBytes))
	}
	// Offsets inside a line map to the same counter.
	if l.CounterAddr(0x100) != l.CounterAddr(0x13F) {
		t.Error("intra-line offsets map to different counters")
	}
}

func TestDataLinesOfInverse(t *testing.T) {
	l := NewLayout(8 << 30)
	cl := l.CounterLine(Addr(123 * LineBytes))
	lines := l.DataLinesOf(cl)
	for i, da := range lines {
		if l.CounterLine(da) != cl {
			t.Errorf("DataLinesOf[%d] = %#x maps back to %#x", i, da, l.CounterLine(da))
		}
		if l.CounterSlot(da) != i {
			t.Errorf("DataLinesOf[%d] slot = %d", i, l.CounterSlot(da))
		}
	}
}

// Property: for any data line, the counter address is in the counter
// region, and the (CounterLine, CounterSlot) pair is unique per line.
func TestPropertyCounterMappingInjective(t *testing.T) {
	l := NewLayout(8 << 30)
	f := func(rawA, rawB uint32) bool {
		a := Addr(rawA).LineAddr()
		b := Addr(rawB).LineAddr()
		if !l.IsCounter(l.CounterAddr(a)) {
			return false
		}
		sameMapping := l.CounterLine(a) == l.CounterLine(b) && l.CounterSlot(a) == l.CounterSlot(b)
		return sameMapping == (a == b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutValidate(t *testing.T) {
	l := NewLayout(1 << 20)
	if err := l.Validate(0); err != nil {
		t.Errorf("Validate(0): %v", err)
	}
	if err := l.Validate(Addr(1 << 20)); err == nil {
		t.Error("out-of-range address accepted")
	}
}

func TestImageSnapshot(t *testing.T) {
	im := NewImage()
	mk := func(b byte) Line { var l Line; l[0] = b; return l }
	im.Apply(0, mk(1), 100)
	im.Apply(64, mk(2), 200)
	im.Apply(0, mk(3), 300)

	if im.Len() != 2 {
		t.Fatalf("Len = %d", im.Len())
	}
	if l, ok := im.Read(0); !ok || l[0] != 3 {
		t.Fatalf("Read(0) = %v %v", l, ok)
	}
	if im.LastWrite() != 300 {
		t.Fatalf("LastWrite = %d", im.LastWrite())
	}

	snap := im.SnapshotAt(250)
	if snap[0][0] != 1 {
		t.Errorf("snapshot at 250 has line0 = %d, want old value 1", snap[0][0])
	}
	if snap[64][0] != 2 {
		t.Errorf("snapshot missing line64")
	}
	snap = im.SnapshotAt(50)
	if len(snap) != 0 {
		t.Errorf("snapshot before first write nonempty: %v", snap)
	}
	snap = im.SnapshotAt(300)
	if snap[0][0] != 3 {
		t.Errorf("inclusive cut missed write at exactly t")
	}
}

func TestImageUnalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unaligned Apply did not panic")
		}
	}()
	NewImage().Apply(1, Line{}, 0)
}

func TestSpaceByteAccess(t *testing.T) {
	s := NewSpace()
	data := []byte("hello, persistent world")
	// Span a line boundary on purpose.
	a := Addr(LineBytes - 5)
	s.WriteBytes(a, data)
	if got := s.ReadBytes(a, len(data)); !bytes.Equal(got, data) {
		t.Fatalf("read back %q", got)
	}
	// Unwritten memory reads as zero.
	if got := s.ReadBytes(1<<20, 4); !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Fatalf("unwritten read = %v", got)
	}
}

func TestSpaceUint64(t *testing.T) {
	s := NewSpace()
	s.WriteUint64(120, 0xDEADBEEFCAFEF00D) // crosses the line at 128
	if got := s.ReadUint64(120); got != 0xDEADBEEFCAFEF00D {
		t.Fatalf("ReadUint64 = %#x", got)
	}
}

func TestSpaceLines(t *testing.T) {
	s := NewSpace()
	s.WriteUint64(0, 1)
	s.WriteUint64(200, 2)
	if l := s.ReadLine(0); l[0] != 1 {
		t.Fatalf("ReadLine(0) content wrong: %v", l[:16])
	}
	l := s.ReadLine(200)
	if l[8] != 2 {
		t.Fatalf("ReadLine content wrong: %v", l[:16])
	}
}

func TestSpaceCloneIsDeep(t *testing.T) {
	s := NewSpace()
	s.WriteUint64(0, 42)
	c := s.Clone()
	c.WriteUint64(0, 99)
	if s.ReadUint64(0) != 42 {
		t.Fatal("clone shares storage with original")
	}
	if c.ReadUint64(0) != 99 {
		t.Fatal("clone write lost")
	}
}

// Property: WriteBytes then ReadBytes round-trips for arbitrary addresses
// and contents.
func TestPropertySpaceRoundTrip(t *testing.T) {
	f := func(rawAddr uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		s := NewSpace()
		a := Addr(rawAddr)
		s.WriteBytes(a, data)
		return bytes.Equal(s.ReadBytes(a, len(data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a snapshot at the last write time equals the current image.
func TestPropertySnapshotAtEndMatchesCurrent(t *testing.T) {
	f := func(ops []struct {
		LineIdx uint8
		Val     uint8
		Dt      uint8
	}) bool {
		im := NewImage()
		var now sim.Time
		for _, op := range ops {
			now += sim.Time(op.Dt)
			var l Line
			l[0] = op.Val
			im.Apply(Addr(op.LineIdx)*LineBytes, l, now)
		}
		snap := im.SnapshotAt(now)
		if len(snap) != im.Len() {
			return false
		}
		for a, l := range snap {
			got, ok := im.Read(a)
			if !ok || got != l {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotWritesAtKeepsMetadata(t *testing.T) {
	im := NewImage()
	var l Line
	im.ApplyFull(0, l, 100, 7, 0xAB)
	im.ApplyFull(64, l, 200, 9, 0xCD)
	snap := im.SnapshotWritesAt(150)
	if len(snap) != 1 {
		t.Fatalf("snapshot size = %d", len(snap))
	}
	w := snap[0]
	if w.Tag != 7 || w.Sum != 0xAB || w.At != 100 {
		t.Fatalf("metadata lost: %+v", w)
	}
}

func TestLogFreeImage(t *testing.T) {
	im := NewImage()
	im.SetRetainLog(false)
	var l Line
	l[0] = 5
	im.Apply(0, l, 100)
	im.Apply(0, l, 300)
	if len(im.Writes()) != 0 {
		t.Fatal("log retained after SetRetainLog(false)")
	}
	if im.LastWrite() != 300 {
		t.Fatalf("LastWrite = %d", im.LastWrite())
	}
	// Snapshot at/after the end works from current contents.
	snap := im.SnapshotAt(300)
	if snap[0][0] != 5 {
		t.Fatal("end snapshot wrong")
	}
	// Snapshot before the end is unanswerable and must panic loudly
	// rather than silently return wrong history.
	defer func() {
		if recover() == nil {
			t.Error("mid-history snapshot of log-free image did not panic")
		}
	}()
	im.SnapshotAt(200)
}

// TestSteadyStateAllocs pins the functional image at zero allocations:
// ApplyFull appends into the log SetLogHint reserved (the warm-up call
// takes growLog's one allocation) and overwrites a line already present
// in the table, and Space.WriteLine stores into a line it already holds.
func TestSteadyStateAllocs(t *testing.T) {
	im := NewImage()
	im.SetLogHint(1024)
	var l Line
	at := sim.Time(0)
	if got := testing.AllocsPerRun(100, func() {
		at++
		im.ApplyFull(0x40, l, at, 1, 2)
	}); got > 0 {
		t.Errorf("ApplyFull allocates %v times, pin 0", got)
	}
	s := NewSpace()
	s.WriteLine(0x40, l)
	if got := testing.AllocsPerRun(100, func() { s.WriteLine(0x40, l) }); got > 0 {
		t.Errorf("Space.WriteLine allocates %v times, pin 0", got)
	}
}
