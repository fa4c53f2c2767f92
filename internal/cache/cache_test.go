package cache

import (
	"testing"
	"testing/quick"

	"encnvm/internal/config"
	"encnvm/internal/mem"
)

// tiny returns a 2-way cache with 4 sets of 64B lines (512B total) so
// eviction behaviour is easy to exercise.
func tiny() *Cache {
	return New(config.CacheConfig{Name: "tiny", SizeBytes: 512, Ways: 2, LineBytes: 64})
}

// addrFor returns an address mapping to the given set with the given tag.
func addrFor(set, tag int) mem.Addr {
	return mem.Addr((tag*4 + set) * 64)
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad geometry did not panic")
		}
	}()
	New(config.CacheConfig{SizeBytes: 100, Ways: 3, LineBytes: 64})
}

func TestHitMiss(t *testing.T) {
	c := tiny()
	if res := c.Access(0x0, false); res.Hit {
		t.Fatal("cold access hit")
	}
	if res := c.Access(0x0, false); !res.Hit {
		t.Fatal("second access missed")
	}
	// Different offset, same line.
	if res := c.Access(0x3F, false); !res.Hit {
		t.Fatal("same-line offset missed")
	}
	// Next line misses.
	if res := c.Access(0x40, false); res.Hit {
		t.Fatal("different line hit")
	}
}

func TestWriteMarksDirty(t *testing.T) {
	c := tiny()
	c.Access(0x0, false)
	if c.IsDirty(0x0) {
		t.Fatal("read-allocated line dirty")
	}
	c.Access(0x0, true)
	if !c.IsDirty(0x0) {
		t.Fatal("written line not dirty")
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny()
	a, b, d := addrFor(0, 0), addrFor(0, 1), addrFor(0, 2)
	c.Access(a, true)
	c.Access(b, false)
	c.Access(a, false) // a most recent; b is LRU
	res := c.Access(d, false)
	if res.Hit || !res.VictimValid {
		t.Fatalf("expected eviction, got %+v", res)
	}
	if res.Victim != b {
		t.Fatalf("evicted %#x, want LRU %#x", res.Victim, b)
	}
	if res.VictimDirty {
		t.Fatal("clean victim reported dirty")
	}
	if !c.Contains(a) || c.Contains(b) || !c.Contains(d) {
		t.Fatal("post-eviction residency wrong")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := tiny()
	c.Access(addrFor(1, 0), true) // dirty
	c.Access(addrFor(1, 1), false)
	res := c.Access(addrFor(1, 2), false) // evicts the dirty LRU line
	if !res.VictimValid || !res.VictimDirty || res.Victim != addrFor(1, 0) {
		t.Fatalf("dirty eviction not reported: %+v", res)
	}
}

func TestClean(t *testing.T) {
	c := tiny()
	c.Access(0x0, true)
	if !c.Clean(0x0) {
		t.Fatal("Clean on dirty line returned false")
	}
	if c.IsDirty(0x0) {
		t.Fatal("line still dirty after Clean")
	}
	if !c.Contains(0x0) {
		t.Fatal("Clean invalidated the line")
	}
	if c.Clean(0x0) {
		t.Fatal("Clean on clean line returned true")
	}
	if c.Clean(0x1000) {
		t.Fatal("Clean on absent line returned true")
	}
}

func TestInvalidate(t *testing.T) {
	c := tiny()
	c.Access(0x0, true)
	present, dirty := c.Invalidate(0x0)
	if !present || !dirty {
		t.Fatalf("Invalidate = %v,%v", present, dirty)
	}
	if c.Contains(0x0) {
		t.Fatal("line survived invalidate")
	}
	present, _ = c.Invalidate(0x0)
	if present {
		t.Fatal("double invalidate reported present")
	}
}

func TestDirtyLinesAndCleanAll(t *testing.T) {
	c := tiny()
	c.Access(addrFor(0, 0), true)
	c.Access(addrFor(1, 0), false)
	c.Access(addrFor(2, 0), true)
	dirty := c.DirtyLines()
	if len(dirty) != 2 {
		t.Fatalf("DirtyLines = %v", dirty)
	}
	cleaned := c.CleanAll()
	if len(cleaned) != 2 {
		t.Fatalf("CleanAll = %v", cleaned)
	}
	if len(c.DirtyLines()) != 0 {
		t.Fatal("dirty lines remain after CleanAll")
	}
	for _, a := range []mem.Addr{addrFor(0, 0), addrFor(1, 0), addrFor(2, 0)} {
		if !c.Contains(a) {
			t.Fatalf("CleanAll evicted %#x", a)
		}
	}
}

func TestReset(t *testing.T) {
	c := tiny()
	c.Access(0x0, true)
	c.Reset()
	if c.Contains(0x0) {
		t.Fatal("Reset left contents")
	}
}

func TestContainsDoesNotTouchLRU(t *testing.T) {
	c := tiny()
	a, b, d := addrFor(0, 0), addrFor(0, 1), addrFor(0, 2)
	c.Access(a, false)
	c.Access(b, false)
	// Probing a must NOT refresh it; a stays LRU and gets evicted.
	if !c.Contains(a) {
		t.Fatal("probe missed")
	}
	res := c.Access(d, false)
	if res.Victim != a {
		t.Fatalf("evicted %#x, want %#x (probe touched LRU)", res.Victim, a)
	}
}

// Property: the number of resident lines never exceeds capacity, and a
// line reported as a victim is no longer resident.
func TestPropertyCapacityAndVictims(t *testing.T) {
	capacityLines := 8 // tiny(): 512B / 64B
	f := func(ops []struct {
		Line  uint8
		Write bool
	}) bool {
		c := tiny()
		for _, op := range ops {
			addr := mem.Addr(op.Line) * 64
			res := c.Access(addr, op.Write)
			if res.VictimValid && c.Contains(res.Victim) && res.Victim != addr {
				return false
			}
			if !c.Contains(addr) {
				return false
			}
			resident := 0
			for line := 0; line < 256; line++ {
				if c.Contains(mem.Addr(line) * 64) {
					resident++
				}
			}
			if resident > capacityLines {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a dirty line is never silently lost — it either stays resident
// and dirty, or is reported as a dirty victim on eviction.
func TestPropertyNoSilentDirtyLoss(t *testing.T) {
	f := func(ops []struct {
		Line  uint8
		Write bool
	}) bool {
		c := tiny()
		dirty := make(map[mem.Addr]bool)
		for _, op := range ops {
			addr := mem.Addr(op.Line) * 64
			res := c.Access(addr, op.Write)
			if res.VictimValid {
				if res.VictimDirty != dirty[res.Victim] {
					return false
				}
				delete(dirty, res.Victim)
			}
			if op.Write {
				dirty[addr] = true
			}
		}
		for a, d := range dirty {
			if d && !c.IsDirty(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFullSizeCachesConstruct(t *testing.T) {
	cfg := config.Default(config.SCA)
	for _, cc := range []config.CacheConfig{cfg.L1, cfg.L2, cfg.CounterCache} {
		c := New(cc)
		if c.Config().Name != cc.Name {
			t.Errorf("config roundtrip failed for %s", cc.Name)
		}
	}
}

func TestDirtyCountMatchesDirtyLines(t *testing.T) {
	c := tiny()
	if c.DirtyCount() != 0 {
		t.Fatal("fresh cache has dirty lines")
	}
	c.Access(0, true)
	c.Access(64, true)
	c.Access(128, false)
	if got, want := c.DirtyCount(), len(c.DirtyLines()); got != want || got != 2 {
		t.Fatalf("DirtyCount = %d, DirtyLines = %d, want 2", got, want)
	}
	c.Clean(0)
	if got := c.DirtyCount(); got != 1 {
		t.Fatalf("after Clean, DirtyCount = %d, want 1", got)
	}
}

// TestSteadyStateAllocs pins lookups at zero allocations: a hit, a miss
// that evicts a dirty victim (three tags cycling through one 2-way set),
// and Clean all work in place on the preallocated ways.
func TestSteadyStateAllocs(t *testing.T) {
	c := tiny()
	c.Access(addrFor(0, 0), false)
	i := 0
	if got := testing.AllocsPerRun(100, func() {
		i++
		c.Access(addrFor(0, 0), false)
		c.Access(addrFor(1, i%3), true)
		c.Clean(addrFor(1, i%3))
	}); got > 0 {
		t.Errorf("Access+Clean allocates %v times, pin 0", got)
	}
}
