package config

import (
	"testing"

	"encnvm/internal/sim"
)

func TestDefaultValid(t *testing.T) {
	for _, d := range AllDesigns {
		c := Default(d)
		if err := c.Validate(); err != nil {
			t.Errorf("%v: %v", d, err)
		}
	}
}

// CoLocatesCounters is the one counter-placement answer config keeps: it
// sizes the 72-bit bus in Default. The engine table owns the rest.
func TestDesignPredicates(t *testing.T) {
	cases := []struct {
		d     Design
		coloc bool
	}{
		{NoEncryption, false},
		{Ideal, false},
		{CoLocated, true},
		{CoLocatedCC, true},
		{FCA, false},
		{SCA, false},
		{Osiris, false},
		{BMT, false},
		{SecPM, false},
		// An out-of-range value is not a real design.
		{Design(99), false},
	}
	for _, c := range cases {
		if c.d.CoLocatesCounters() != c.coloc {
			t.Errorf("%v.CoLocatesCounters() = %v", c.d, c.d.CoLocatesCounters())
		}
	}
}

func TestDesignStrings(t *testing.T) {
	want := map[Design]string{
		NoEncryption: "NoEncryption",
		Ideal:        "Ideal",
		CoLocated:    "Co-located",
		CoLocatedCC:  "Co-located w/ C-Cache",
		FCA:          "FCA",
		SCA:          "SCA",
	}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(d), d.String(), s)
		}
	}
	if Design(99).String() != "Design(99)" {
		t.Errorf("unknown design string = %q", Design(99).String())
	}
}

func TestTableTwoValues(t *testing.T) {
	c := Default(SCA)
	if c.CPUCycle != 250*sim.Picosecond {
		t.Errorf("CPU cycle = %v ps, want 250", c.CPUCycle)
	}
	if c.L1.SizeBytes != 64<<10 || c.L2.SizeBytes != 2<<20 || c.CounterCache.SizeBytes != 1<<20 {
		t.Errorf("cache sizes wrong: %d %d %d", c.L1.SizeBytes, c.L2.SizeBytes, c.CounterCache.SizeBytes)
	}
	if c.CounterCache.Ways != 16 {
		t.Errorf("counter cache ways = %d, want 16", c.CounterCache.Ways)
	}
	if c.ReadQueueEntries != 32 || c.DataWriteQueue != 64 || c.CounterWriteQueue != 16 {
		t.Errorf("queues = %d/%d/%d", c.ReadQueueEntries, c.DataWriteQueue, c.CounterWriteQueue)
	}
	if c.Timing.TWR != 300*sim.Nanosecond {
		t.Errorf("tWR = %v", c.Timing.TWR)
	}
	if c.Timing.TWTR != 7500*sim.Picosecond {
		t.Errorf("tWTR = %v ps, want 7500", c.Timing.TWTR)
	}
	if c.CryptoLatency != 40*sim.Nanosecond {
		t.Errorf("crypto latency = %v", c.CryptoLatency)
	}
	if c.MemoryBytes != 8<<30 {
		t.Errorf("memory = %d", c.MemoryBytes)
	}
}

func TestBusWidthPerDesign(t *testing.T) {
	if got := Default(SCA).BusBytes; got != 8 {
		t.Errorf("SCA bus = %dB, want 8", got)
	}
	if got := Default(CoLocated).BusBytes; got != 9 {
		t.Errorf("CoLocated bus = %dB, want 9", got)
	}
	if got := Default(CoLocatedCC).AccessBytes(); got != 72 {
		t.Errorf("CoLocatedCC access = %dB, want 72", got)
	}
	if got := Default(FCA).AccessBytes(); got != 64 {
		t.Errorf("FCA access = %dB, want 64", got)
	}
}

func TestBurstTime(t *testing.T) {
	c := Default(SCA)
	// 64B over an 8B-wide DDR bus: 8 beats = 4 memory cycles.
	want := 4 * c.MemCycle
	if got := c.BurstTime(64); got != want {
		t.Errorf("BurstTime(64) = %d, want %d", got, want)
	}
	co := Default(CoLocated)
	// 72B over a 9B-wide DDR bus: 8 beats = 4 memory cycles (same time).
	if got := co.BurstTime(72); got != 4*co.MemCycle {
		t.Errorf("wide BurstTime(72) = %d, want %d", got, 4*co.MemCycle)
	}
}

func TestWithCoresScalesSharedCaches(t *testing.T) {
	c := Default(SCA).WithCores(8)
	if c.NumCores != 8 {
		t.Fatalf("cores = %d", c.NumCores)
	}
	if c.L2.SizeBytes != 16<<20 {
		t.Errorf("L2 = %d, want 16MB", c.L2.SizeBytes)
	}
	if c.CounterCache.SizeBytes != 8<<20 {
		t.Errorf("counter cache = %d, want 8MB", c.CounterCache.SizeBytes)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestLatencyScaling(t *testing.T) {
	base := Default(SCA)
	slow := base.WithNVMLatencyScale(10, 1)
	et := slow.EffectiveTiming()
	if et.TCL != 10*base.Timing.TCL {
		t.Errorf("scaled tCL = %v, want 10x", et.TCL)
	}
	if et.TWR != base.Timing.TWR {
		t.Errorf("write timing changed under read scaling")
	}
	fast := base.WithNVMLatencyScale(1, 0.25)
	et = fast.EffectiveTiming()
	if et.TWR != base.Timing.TWR/4 {
		t.Errorf("scaled tWR = %v, want 1/4", et.TWR)
	}
	// Base config untouched.
	if base.ReadLatencyX != 1.0 || base.WriteLatencyX != 1.0 {
		t.Errorf("base config mutated")
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	c := Default(SCA)
	c.NumCores = 0
	if c.Validate() == nil {
		t.Error("zero cores accepted")
	}
	c = Default(SCA)
	c.LineBytes = 63
	if c.Validate() == nil {
		t.Error("non-power-of-two line accepted")
	}
	c = Default(SCA)
	c.BusBytes = 9 // inconsistent with non-co-located design
	if c.Validate() == nil {
		t.Error("inconsistent bus accepted")
	}
	c = Default(SCA)
	c.DataWriteQueue = 0
	if c.Validate() == nil {
		t.Error("zero write queue accepted")
	}
}

func TestCountersPerLine(t *testing.T) {
	if got := Default(SCA).CountersPerLine(); got != 8 {
		t.Errorf("CountersPerLine = %d, want 8", got)
	}
}

func TestAccessTimings(t *testing.T) {
	tm := Default(SCA).Timing
	if tm.ReadAccess() != 63*sim.Nanosecond {
		t.Errorf("ReadAccess = %v, want 63ns", tm.ReadAccess())
	}
	if tm.WriteAccess() != 313*sim.Nanosecond {
		t.Errorf("WriteAccess = %v, want 313ns", tm.WriteAccess())
	}
}

func TestOsirisPredicates(t *testing.T) {
	d := Osiris
	if d.CoLocatesCounters() {
		t.Fatal("Osiris co-locates counters")
	}
	if d.String() != "Osiris" {
		t.Fatalf("String = %q", d.String())
	}
	c := Default(Osiris)
	if c.StopLoss != 4 {
		t.Fatalf("default stop-loss = %d, want 4", c.StopLoss)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAllDesignsIncludesExtension(t *testing.T) {
	if len(AllDesigns) != 7 {
		t.Fatalf("AllDesigns = %d, want the paper's six plus Osiris", len(AllDesigns))
	}
}

func TestWithCounterCacheSizeIsolated(t *testing.T) {
	base := Default(SCA)
	small := base.WithCounterCacheSize(128 << 10)
	if small.CounterCache.SizeBytes != 128<<10 {
		t.Fatalf("size = %d", small.CounterCache.SizeBytes)
	}
	if base.CounterCache.SizeBytes != 1<<20 {
		t.Fatal("base config mutated")
	}
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
}
