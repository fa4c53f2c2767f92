package ctrenc

import (
	"testing"
	"testing/quick"

	"encnvm/internal/mem"
)

func lineOf(b byte) mem.Line {
	var l mem.Line
	for i := range l {
		l[i] = b + byte(i)
	}
	return l
}

func TestNewRejectsBadKey(t *testing.T) {
	if _, err := New([]byte("short")); err == nil {
		t.Fatal("5-byte key accepted")
	}
	if _, err := New(DefaultKey); err != nil {
		t.Fatalf("default key rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad key did not panic")
		}
	}()
	MustNew([]byte("bad"))
}

func TestRoundTrip(t *testing.T) {
	e := NewDefault()
	plain := lineOf(7)
	ct := e.Encrypt(plain, 0x1000, 42)
	if ct == plain {
		t.Fatal("ciphertext equals plaintext")
	}
	if got := e.Decrypt(ct, 0x1000, 42); got != plain {
		t.Fatal("round trip failed")
	}
}

func TestStaleCounterYieldsGarbage(t *testing.T) {
	// The paper's Eq. 4: decrypting with the wrong counter does not
	// return the original value.
	e := NewDefault()
	plain := lineOf(1)
	ct := e.Encrypt(plain, 0x2000, 14)
	if got := e.Decrypt(ct, 0x2000, 10); got == plain {
		t.Fatal("stale counter decrypted correctly")
	}
}

func TestWrongAddressYieldsGarbage(t *testing.T) {
	e := NewDefault()
	plain := lineOf(3)
	ct := e.Encrypt(plain, 0x3000, 5)
	if got := e.Decrypt(ct, 0x3040, 5); got == plain {
		t.Fatal("wrong address decrypted correctly")
	}
}

func TestOTPBlocksDiffer(t *testing.T) {
	// All four 16B AES blocks within one pad must differ, otherwise
	// patterns in the plaintext would leak.
	e := NewDefault()
	pad := e.OTP(0, 1)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			same := true
			for k := 0; k < 16; k++ {
				if pad[i*16+k] != pad[j*16+k] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("OTP blocks %d and %d identical", i, j)
			}
		}
	}
}

func TestOTPDeterministic(t *testing.T) {
	a := NewDefault().OTP(0x40, 9)
	b := NewDefault().OTP(0x40, 9)
	if a != b {
		t.Fatal("OTP not deterministic across engines with same key")
	}
	if a == NewDefault().OTP(0x40, 10) {
		t.Fatal("different counters gave same OTP")
	}
}

func TestDifferentKeysDiffer(t *testing.T) {
	e1 := MustNew([]byte("0123456789abcdef"))
	e2 := MustNew([]byte("fedcba9876543210"))
	if e1.OTP(0, 1) == e2.OTP(0, 1) {
		t.Fatal("different keys produced same OTP")
	}
}

// Property: encrypt/decrypt round-trips for arbitrary lines, addresses and
// counters; and decrypting with any different counter never round-trips.
func TestPropertyRoundTrip(t *testing.T) {
	e := NewDefault()
	f := func(seed byte, rawAddr uint32, counter uint64, wrongDelta uint8) bool {
		plain := lineOf(seed)
		addr := mem.Addr(rawAddr).LineAddr()
		ct := e.Encrypt(plain, addr, counter)
		if e.Decrypt(ct, addr, counter) != plain {
			return false
		}
		if wrongDelta != 0 {
			if e.Decrypt(ct, addr, counter+uint64(wrongDelta)) == plain {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCountersPerLineMonotonic(t *testing.T) {
	c := &Counters{}
	if c.Current(0) != 0 {
		t.Fatal("unwritten line has nonzero counter")
	}
	v1 := c.Next(0)
	v2 := c.Next(64)
	v3 := c.Next(0)
	if v1 != 1 || v2 != 1 || v3 != 2 {
		t.Fatalf("per-line counters wrong: %d %d %d", v1, v2, v3)
	}
	if c.Current(0) != 2 || c.Current(64) != 1 {
		t.Fatalf("Current = %d/%d", c.Current(0), c.Current(64))
	}
	if c.Global() != 3 || c.Lines() != 2 {
		t.Fatalf("writes=%d lines=%d", c.Global(), c.Lines())
	}
}

func TestCountersIgnoreOffset(t *testing.T) {
	c := &Counters{}
	c.Next(0x100)
	if c.Current(0x13F) != c.Current(0x100) {
		t.Fatal("offsets within a line see different counters")
	}
}

func TestPackUnpackCounterLine(t *testing.T) {
	var vals [mem.CountersPerLine]uint64
	for i := range vals {
		vals[i] = uint64(i) * 0x0101010101
	}
	if got := UnpackCounterLine(PackCounterLine(vals)); got != vals {
		t.Fatalf("pack/unpack mismatch: %v", got)
	}
}

// Property: pack/unpack is a bijection.
func TestPropertyPackUnpack(t *testing.T) {
	f := func(vals [8]uint64) bool {
		return UnpackCounterLine(PackCounterLine(vals)) == vals
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateAllocs pins the per-write crypto path at zero
// allocations: OTP's input block and pad are engine fields, so nothing
// escapes through the cipher.Block interface. Counters.Next on a line it
// already tracks allocates nothing either.
func TestSteadyStateAllocs(t *testing.T) {
	e := NewDefault()
	var l mem.Line
	if got := testing.AllocsPerRun(100, func() { l = e.Encrypt(l, 0x40, 7) }); got > 0 {
		t.Errorf("Encrypt allocates %v times, pin 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { l = e.Decrypt(l, 0x40, 7) }); got > 0 {
		t.Errorf("Decrypt allocates %v times, pin 0", got)
	}
	c := &Counters{}
	c.Next(0x40)
	if got := testing.AllocsPerRun(100, func() { c.Next(0x40) }); got > 0 {
		t.Errorf("Counters.Next allocates %v times, pin 0", got)
	}
}
