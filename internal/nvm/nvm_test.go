package nvm

import (
	"testing"

	"encnvm/internal/config"
	"encnvm/internal/mem"
	"encnvm/internal/sim"
	"encnvm/internal/stats"
)

func newDev(d config.Design) (*sim.Engine, *Device, *stats.Stats) {
	eng := sim.New()
	st := stats.New()
	return eng, New(eng, config.Default(d), st), st
}

// on registers fn as a completion handler that ignores its argument.
func on(eng *sim.Engine, fn func()) sim.Handler {
	return eng.Register(func(uint64) { fn() })
}

func TestReadUnloadedLatency(t *testing.T) {
	eng, dev, st := newDev(config.SCA)
	var doneAt sim.Time
	eng.Schedule(0, func() {
		dev.Read(0x100, 64, on(eng, func() { doneAt = eng.Now() }), 0)
	})
	eng.Run()
	want := dev.ReadLatency(64)
	if doneAt != want {
		t.Fatalf("read completed at %d, want %d", doneAt, want)
	}
	if st.Count(stats.Reads) != 1 || st.Count(stats.BytesRead) != 64 {
		t.Fatalf("read stats wrong: %d reads %d bytes", st.Count(stats.Reads), st.Count(stats.BytesRead))
	}
}

func TestWritePersistsAtCompletion(t *testing.T) {
	eng, dev, st := newDev(config.SCA)
	var line mem.Line
	line[0] = 0xAB
	var doneAt sim.Time
	eng.Schedule(0, func() {
		dev.Write(0x200, line, 64, 7, 0, on(eng, func() { doneAt = eng.Now() }), 0)
	})
	eng.Run()
	if doneAt != dev.WriteLatency(64) {
		t.Fatalf("write completed at %d, want %d", doneAt, dev.WriteLatency(64))
	}
	got, ok := dev.Image().Read(0x200)
	if !ok || got[0] != 0xAB {
		t.Fatalf("image missing write: %v %v", got[:2], ok)
	}
	if dev.Image().LastWrite() != doneAt {
		t.Fatalf("image timestamp %d != completion %d", dev.Image().LastWrite(), doneAt)
	}
	if st.Count(stats.DataWrites) != 1 {
		t.Fatalf("data write not counted")
	}
}

func TestCounterRegionTrafficClassified(t *testing.T) {
	eng, dev, st := newDev(config.SCA)
	ctrAddr := dev.Layout().CounterBase
	eng.Schedule(0, func() {
		dev.Write(ctrAddr, mem.Line{}, 64, 0, 0, sim.NoHandler, 0)
		dev.Write(0x0, mem.Line{}, 64, 0, 0, sim.NoHandler, 0)
	})
	eng.Run()
	if st.Count(stats.CounterWrites) != 1 || st.Count(stats.DataWrites) != 1 {
		t.Fatalf("classification wrong: ctr=%d data=%d",
			st.Count(stats.CounterWrites), st.Count(stats.DataWrites))
	}
	if st.Count(stats.CounterBytesWritten) != 64 || st.Count(stats.DataBytesWritten) != 64 {
		t.Fatalf("byte classification wrong")
	}
}

func TestBankParallelismVsSerialization(t *testing.T) {
	// Two reads to different banks overlap; two reads to the same bank
	// serialize on the bank.
	eng, dev, _ := newDev(config.SCA)
	var endDiff, endSame sim.Time
	eng.Schedule(0, func() {
		dev.Read(0*64, 64, sim.NoHandler, 0)
		dev.Read(1*64, 64, on(eng, func() { endDiff = eng.Now() }), 0) // bank 1
	})
	eng.Run()

	eng2 := sim.New()
	cfg2 := config.Default(config.SCA)
	dev2 := New(eng2, cfg2, stats.New())
	sameBank := mem.Addr(cfg2.Banks * 64) // wraps back to bank 0
	eng2.Schedule(0, func() {
		dev2.Read(0*64, 64, sim.NoHandler, 0)
		dev2.Read(sameBank, 64, on(eng2, func() { endSame = eng2.Now() }), 0) // also bank 0
	})
	eng2.Run()

	if endSame <= endDiff {
		t.Fatalf("same-bank read (%d) not slower than different-bank (%d)", endSame, endDiff)
	}
}

func TestBusContentionSerializesBursts(t *testing.T) {
	// Many reads to distinct banks still share the bus; total time must
	// exceed a single access by at least the extra burst time.
	eng, dev, _ := newDev(config.SCA)
	n := 4
	var last sim.Time
	done := on(eng, func() { last = eng.Now() })
	eng.Schedule(0, func() {
		for i := 0; i < n; i++ {
			dev.Read(mem.Addr(i*64), 64, done, 0)
		}
	})
	eng.Run()
	cfg := config.Default(config.SCA)
	minimum := dev.ReadLatency(64) + sim.Time(n-1)*cfg.BurstTime(64)
	if last < minimum {
		t.Fatalf("4 parallel reads finished at %d, bus should enforce >= %d", last, minimum)
	}
}

func TestWideBusCarries72Bytes(t *testing.T) {
	engW, devW, _ := newDev(config.CoLocated)
	var wideEnd sim.Time
	engW.Schedule(0, func() {
		devW.Read(0, 72, on(engW, func() { wideEnd = engW.Now() }), 0)
	})
	engW.Run()
	// A 72B access on the 9B-wide bus takes the same 8 beats as 64B on
	// the 8B bus: widened bus means no extra burst time.
	engN, devN, _ := newDev(config.SCA)
	var narrowEnd sim.Time
	engN.Schedule(0, func() {
		devN.Read(0, 64, on(engN, func() { narrowEnd = engN.Now() }), 0)
	})
	engN.Run()
	if wideEnd != narrowEnd {
		t.Fatalf("72B-on-wide = %d, 64B-on-narrow = %d; should match", wideEnd, narrowEnd)
	}
}

func TestReadReturnsWrittenData(t *testing.T) {
	eng, dev, _ := newDev(config.SCA)
	var line mem.Line
	line[7] = 9
	var got mem.Line
	var found bool
	// The device hands back no data: a read-after-write check reads the
	// image from the read's completion handler.
	read := on(eng, func() { got, found = dev.Image().Read(0x40) })
	written := on(eng, func() { dev.Read(0x40, 64, read, 0) })
	eng.Schedule(0, func() { dev.Write(0x40, line, 64, 1, 0, written, 0) })
	eng.Run()
	if !found || got != line {
		t.Fatalf("read after write: ok=%v data[7]=%d", found, got[7])
	}
}

func TestReadOfUnwrittenLine(t *testing.T) {
	eng, dev, _ := newDev(config.SCA)
	var ok bool
	read := on(eng, func() { _, ok = dev.Image().Read(0x9940) })
	eng.Schedule(0, func() { dev.Read(0x9940, 64, read, 0) })
	eng.Run()
	if ok {
		t.Fatal("unwritten line reported present")
	}
}

func TestWriteAtBypassesTiming(t *testing.T) {
	_, dev, _ := newDev(config.SCA)
	var line mem.Line
	line[0] = 1
	dev.WriteAt(0x80, line, 0, 0, 12345)
	got, ok := dev.Image().Read(0x80)
	if !ok || got != line || dev.Image().LastWrite() != 12345 {
		t.Fatal("WriteAt did not land in image with given timestamp")
	}
}

func TestLatencyScalingAffectsDevice(t *testing.T) {
	cfg := config.Default(config.SCA)
	slow := cfg.WithNVMLatencyScale(10, 1)
	devBase := New(sim.New(), cfg, stats.New())
	devSlow := New(sim.New(), slow, stats.New())
	if devSlow.ReadLatency(64) <= devBase.ReadLatency(64) {
		t.Fatal("10x read scaling did not slow reads")
	}
	if devSlow.WriteLatency(64) != devBase.WriteLatency(64) {
		t.Fatal("read scaling changed write latency")
	}
}

func TestWearTracking(t *testing.T) {
	eng, dev, _ := newDev(config.SCA)
	eng.Schedule(0, func() {
		dev.Write(0x40, mem.Line{}, 64, 1, 0, sim.NoHandler, 0)
		dev.Write(0x40, mem.Line{}, 64, 2, 0, sim.NoHandler, 0)
		dev.Write(0x80, mem.Line{}, 64, 1, 0, sim.NoHandler, 0)
	})
	eng.Run()
	lines, total, hottest := dev.Wear()
	if lines != 2 || total != 3 || hottest != 2 {
		t.Fatalf("wear = %d lines, %d total, %d hottest", lines, total, hottest)
	}
}

func TestBusBusyTimeAccumulates(t *testing.T) {
	eng, dev, _ := newDev(config.SCA)
	eng.Schedule(0, func() {
		dev.Read(0, 64, sim.NoHandler, 0)
		dev.Write(64, mem.Line{}, 64, 0, 0, sim.NoHandler, 0)
	})
	eng.Run()
	cfg := config.Default(config.SCA)
	if got := dev.BusBusyTime(); got != 2*cfg.BurstTime(64) {
		t.Fatalf("bus busy = %v, want %v", got, 2*cfg.BurstTime(64))
	}
}

func TestWriteSumRecorded(t *testing.T) {
	eng, dev, _ := newDev(config.Osiris)
	eng.Schedule(0, func() {
		dev.Write(0x40, mem.Line{}, 64, 5, 0xBEEF, sim.NoHandler, 0)
	})
	eng.Run()
	ws := dev.Image().Writes()
	if len(ws) != 1 || ws[0].Sum != 0xBEEF || ws[0].Tag != 5 {
		t.Fatalf("write metadata wrong: %+v", ws)
	}
}

// TestSteadyStateAllocs pins one device access plus its drain at zero
// allocations: a read posts its owner's handler, and a write's in-flight
// record is reused from the device's slab. The wear map, the image log
// and the latency stats are warm.
func TestSteadyStateAllocs(t *testing.T) {
	eng, dev, _ := newDev(config.SCA)
	var line mem.Line
	done := on(eng, func() {})
	if got := testing.AllocsPerRun(100, func() {
		dev.Write(0x200, line, 64, 1, 0, done, 0)
		eng.Run()
	}); got > 0 {
		t.Errorf("Write+Run allocates %v times, pin 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		dev.Read(0x200, 64, done, 0)
		eng.Run()
	}); got > 0 {
		t.Errorf("Read+Run allocates %v times, pin 0", got)
	}
}

func TestWriteCompletionOrder(t *testing.T) {
	// Writes landing at one instant land, and call their owners, in
	// issue order; each owner sees its own line already in the image,
	// with the landing time, and may issue the next write from inside
	// its handler (reusing the freed in-flight record).
	eng, dev, _ := newDev(config.SCA)
	var seen []uint64
	var done sim.Handler
	done = eng.Register(func(arg uint64) {
		seen = append(seen, arg)
		got, ok := dev.Image().Read(mem.Addr(arg * 64))
		if !ok || got[0] != byte(arg) || dev.Image().LastWrite() != eng.Now() {
			t.Errorf("write %d: image line %v %v at %d", arg, got[0], ok, dev.Image().LastWrite())
		}
		if arg == 1 {
			dev.Write(5*64, mem.Line{5}, 64, 0, 0, done, 5)
		}
	})
	eng.Schedule(0, func() {
		for _, a := range []uint64{1, 2, 3} {
			dev.Write(mem.Addr(a*64), mem.Line{byte(a)}, 64, 0, 0, done, a)
		}
	})
	eng.Run()
	if len(seen) != 4 || seen[0] != 1 || seen[1] != 2 || seen[2] != 3 || seen[3] != 5 {
		t.Fatalf("completion order = %v, want [1 2 3 5]", seen)
	}
}
