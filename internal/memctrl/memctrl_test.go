package memctrl

import (
	"fmt"
	"testing"
	"testing/quick"

	"encnvm/internal/config"
	"encnvm/internal/ctrenc"
	"encnvm/internal/machine/engines"
	"encnvm/internal/mem"
	"encnvm/internal/nvm"
	"encnvm/internal/sim"
	"encnvm/internal/stats"
)

// rig bundles one controller with its engine and device for tests.
type rig struct {
	eng *sim.Engine
	dev *nvm.Device
	mc  *Controller
	st  *stats.Stats
	cfg *config.Config
}

func newRig(d config.Design) *rig {
	return newRigCfg(config.Default(d))
}

func newRigCfg(cfg *config.Config) *rig {
	eng := sim.New()
	st := stats.New()
	dev := nvm.New(eng, cfg, st)
	meta, err := engines.ForDesign(cfg.Design)
	if err != nil {
		panic(err)
	}
	return &rig{eng: eng, dev: dev, mc: New(eng, cfg, meta, dev, st), st: st, cfg: cfg}
}

func lineOf(b byte) mem.Line {
	var l mem.Line
	for i := range l {
		l[i] = b
	}
	return l
}

// on registers fn as a completion handler that ignores its argument.
func (r *rig) on(fn func()) sim.Handler {
	return r.eng.Register(func(uint64) { fn() })
}

// run executes fn at t=0 and drains all events.
func (r *rig) run(fn func()) {
	r.eng.Schedule(0, fn)
	r.eng.Run()
}

// decryptFromImage decrypts a data line using the counter stored in the
// image's counter region, exactly as post-crash recovery would.
func (r *rig) decryptFromImage(addr mem.Addr) (mem.Line, bool) {
	ct, ok := r.dev.Image().Read(addr)
	if !ok {
		return mem.Line{}, false
	}
	if !r.mc.meta.Encrypted {
		return ct, true
	}
	cl, _ := r.dev.Image().Read(r.mc.Layout().CounterLine(addr))
	ctr := ctrenc.UnpackCounterLine(cl)[r.mc.Layout().CounterSlot(addr)]
	return r.mc.Encryption().Decrypt(ct, addr, ctr), true
}

func TestWriteLandsEncrypted(t *testing.T) {
	for _, d := range config.AllDesigns {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			r := newRig(d)
			plain := lineOf(0x5A)
			r.run(func() { r.mc.Write(0x1000, plain, false, sim.NoHandler, 0) })
			if d == config.SCA || d == config.Ideal || d == config.Osiris {
				// Counter still dirty on-chip; flush for a
				// consistent image.
				r.run(func() { r.mc.FlushCounters(sim.NoHandler, 0) })
			}
			ct, ok := r.dev.Image().Read(0x1000)
			if !ok {
				t.Fatal("write never reached the image")
			}
			if r.mc.meta.Encrypted && ct == plain {
				t.Fatal("data stored in plaintext under an encrypted design")
			}
			got, ok := r.decryptFromImage(0x1000)
			if !ok || got != plain {
				t.Fatalf("image decryption failed: ok=%v", ok)
			}
		})
	}
}

func TestAcceptedFiresAndWorkDrains(t *testing.T) {
	r := newRig(config.SCA)
	accepted := false
	r.run(func() {
		r.mc.Write(0x40, lineOf(1), false, r.on(func() { accepted = true }), 0)
	})
	if !accepted {
		t.Fatal("accepted callback never fired")
	}
	if r.mc.PendingWork() != 0 {
		t.Fatalf("pending work = %d after drain", r.mc.PendingWork())
	}
}

func TestCAWriteClassification(t *testing.T) {
	// FCA forces every write counter-atomic; SCA honours the flag;
	// designs without separate counter writes have no CA writes at all.
	r := newRig(config.FCA)
	r.run(func() { r.mc.Write(0x40, lineOf(1), false, sim.NoHandler, 0) })
	if r.st.Count(stats.CAWrites) != 1 || r.st.Count(stats.NonCAWrites) != 0 {
		t.Fatalf("FCA: ca=%d nonca=%d", r.st.Count(stats.CAWrites), r.st.Count(stats.NonCAWrites))
	}

	r = newRig(config.SCA)
	r.run(func() {
		r.mc.Write(0x40, lineOf(1), false, sim.NoHandler, 0)
		r.mc.Write(0x80, lineOf(2), true, sim.NoHandler, 0)
	})
	if r.st.Count(stats.CAWrites) != 1 || r.st.Count(stats.NonCAWrites) != 1 {
		t.Fatalf("SCA: ca=%d nonca=%d", r.st.Count(stats.CAWrites), r.st.Count(stats.NonCAWrites))
	}

	r = newRig(config.CoLocated)
	r.run(func() { r.mc.Write(0x40, lineOf(1), true, sim.NoHandler, 0) })
	if r.st.Count(stats.CAWrites) != 0 {
		t.Fatal("co-located design counted a CA write")
	}
}

func TestFCACounterTrafficDoubles(t *testing.T) {
	r := newRig(config.FCA)
	r.run(func() {
		for i := 0; i < 10; i++ {
			// Distinct counter lines: line stride of 8.
			r.mc.Write(mem.Addr(i*8*64), lineOf(byte(i)), false, sim.NoHandler, 0)
		}
	})
	if got := r.st.Count(stats.CounterWrites); got != 10 {
		t.Fatalf("FCA counter writes = %d, want 10 (one per data write)", got)
	}
}

func TestCounterCoalescing(t *testing.T) {
	// Eight neighbouring data lines share one counter line. SCA's ccwb
	// writes it once (counter updates coalesce in the counter cache and
	// the write queue); FCA pairs every data write with its own
	// indivisible counter-line write — the traffic doubling of §4.1.
	work := func(r *rig) {
		for i := 0; i < 8; i++ {
			r.mc.Write(mem.Addr(i*64), lineOf(byte(i)), false, sim.NoHandler, 0)
		}
	}
	rs := newRig(config.SCA)
	rs.run(func() {
		work(rs)
		rs.mc.CounterWriteback(0, sim.NoHandler, 0)
	})
	rf := newRig(config.FCA)
	rf.run(func() { work(rf) })

	if got := rs.st.Count(stats.CounterWrites); got != 1 {
		t.Fatalf("SCA counter writes = %d, want 1 (coalesced)", got)
	}
	if got := rf.st.Count(stats.CounterWrites); got != 8 {
		t.Fatalf("FCA counter writes = %d, want 8 (one per paired write)", got)
	}
	if got := rf.st.Count(stats.CAWrites); got != 8 {
		t.Fatalf("FCA CA writes = %d, want 8", got)
	}
}

func TestCCWBIsNoOpWhenClean(t *testing.T) {
	r := newRig(config.SCA)
	fired := 0
	r.run(func() {
		r.mc.CounterWriteback(0x40, r.on(func() { fired++ }), 0)
	})
	if fired != 1 {
		t.Fatal("ccwb on clean line did not complete")
	}
	if r.st.Count(stats.CounterWrites) != 0 {
		t.Fatal("ccwb on clean line generated traffic")
	}
}

func TestCCWBUnorderedUnderIdeal(t *testing.T) {
	// Ideal pays the counter write traffic (same bytes as SCA) but the
	// barrier never waits for it — "crash consistency at no cost".
	r := newRig(config.Ideal)
	var at sim.Time
	r.run(func() {
		r.mc.Write(0x40, lineOf(1), false, sim.NoHandler, 0)
		r.mc.CounterWriteback(0x40, r.on(func() { at = r.eng.Now() }), 0)
	})
	if at != 0 {
		t.Fatalf("Ideal ccwb completed at %d, want instant", at)
	}
	if r.st.Count(stats.CounterWrites) != 1 {
		t.Fatalf("Ideal ccwb counter writes = %d, want 1 (traffic still flows)",
			r.st.Count(stats.CounterWrites))
	}
}

func TestReadForwardsFromWriteQueue(t *testing.T) {
	r := newRig(config.SCA)
	var readAt sim.Time
	r.run(func() {
		r.mc.Write(0x40, lineOf(1), false, sim.NoHandler, 0)
		r.mc.Read(0x40, r.on(func() { readAt = r.eng.Now() }), 0)
	})
	if readAt != sim.Time(forwardLatency) {
		t.Fatalf("forwarded read at %d, want %d", readAt, forwardLatency)
	}
	if r.st.Count(stats.ReadForwards) != 1 {
		t.Fatal("forward not counted")
	}
}

func TestReadLatencyShapeAcrossDesigns(t *testing.T) {
	// With a warm counter cache, decryption overlaps the fetch: the
	// separate-counter and co-located+C$ designs complete a read in
	// max(fetch, crypto) while plain co-located takes fetch+crypto.
	latency := func(d config.Design, warm bool) sim.Time {
		r := newRig(d)
		var done sim.Time
		r.run(func() {
			if warm {
				// Prime the counter cache via a write, then
				// read a different line in the same counter
				// line group after the queues drain.
				r.mc.Write(0x40, lineOf(1), false, sim.NoHandler, 0)
			}
		})
		start := r.eng.Now()
		r.run(func() { r.mc.Read(0x80, r.on(func() { done = r.eng.Now() }), 0) })
		return done - start
	}

	noenc := latency(config.NoEncryption, false)
	sca := latency(config.SCA, true)
	colo := latency(config.CoLocated, false)
	coloCC := latency(config.CoLocatedCC, true)

	if colo != noenc+40*sim.Nanosecond {
		t.Errorf("CoLocated read = %v, want fetch+40ns = %v", colo, noenc+40*sim.Nanosecond)
	}
	if sca != noenc {
		t.Errorf("SCA warm read = %v, want overlapped fetch %v", sca, noenc)
	}
	if coloCC != noenc {
		t.Errorf("CoLocatedCC warm read = %v, want overlapped fetch %v", coloCC, noenc)
	}
}

func TestColdReadMissFetchesCounterLine(t *testing.T) {
	r := newRig(config.SCA)
	r.run(func() { r.mc.Read(0x40, sim.NoHandler, 0) })
	if got := r.st.Count(stats.CounterCacheMiss); got != 1 {
		t.Fatalf("cold read counter-cache misses = %d, want 1", got)
	}
	// Two device reads: the data line and the counter line.
	if got := r.st.Count(stats.Reads); got != 2 {
		t.Fatalf("device reads = %d, want 2", got)
	}
}

func TestCounterQueueBackpressure(t *testing.T) {
	// Shrink the counter queue to 2 and flood CA writes to distinct
	// counter lines: acceptance must stall (ready-bit waits) and all
	// writes must still complete.
	cfg := config.Default(config.FCA)
	cfg.CounterWriteQueue = 2
	r := newRigCfg(cfg)
	acceptTimes := make([]sim.Time, 0, 8)
	accepted := r.on(func() { acceptTimes = append(acceptTimes, r.eng.Now()) })
	r.run(func() {
		for i := 0; i < 8; i++ {
			r.mc.Write(mem.Addr(i*8*64), lineOf(byte(i)), true, accepted, 0)
		}
	})
	if len(acceptTimes) != 8 {
		t.Fatalf("only %d writes accepted", len(acceptTimes))
	}
	if acceptTimes[7] == acceptTimes[0] {
		t.Fatal("no backpressure: all writes accepted instantly")
	}
	if r.st.Count(stats.WriteQueueStalls) == 0 {
		t.Fatal("no write-queue stalls counted")
	}
	if r.mc.PendingWork() != 0 {
		t.Fatal("work left after run")
	}
}

func TestAcceptanceOrderPerDesign(t *testing.T) {
	// Same scenario under both designs: a ccwb fills the 1-entry counter
	// queue, a CA write stalls behind it, then a regular write arrives.
	// SCA lets the regular write bypass the stalled CA write; FCA's
	// strict FIFO blocks it until the head of line clears (Fig. 7a).
	run := func(d config.Design) (regularAt sim.Time, accepted bool) {
		cfg := config.Default(d)
		cfg.CounterWriteQueue = 1
		r := newRigCfg(cfg)
		r.run(func() {
			r.mc.Write(0x40, lineOf(1), false, sim.NoHandler, 0)
			r.mc.CounterWriteback(0x40, sim.NoHandler, 0)
			r.mc.Write(8*64, lineOf(2), true, sim.NoHandler, 0)
			r.mc.Write(16*64, lineOf(3), false, r.on(func() {
				regularAt, accepted = r.eng.Now(), true
			}), 0)
		})
		return regularAt, accepted
	}

	scaAt, ok := run(config.SCA)
	if !ok {
		t.Fatal("SCA: regular write never accepted")
	}
	if scaAt >= config.Default(config.SCA).Timing.WriteAccess() {
		t.Fatalf("SCA: regular write waited %v for the stalled CA write; bypass broken", scaAt)
	}

	fcaAt, ok := run(config.FCA)
	if !ok {
		t.Fatal("FCA: regular write never accepted")
	}
	// Under FCA every write is CA, and the younger write cannot pass
	// the stalled one: it waits at least one device write (the ccwb
	// draining to free the counter queue).
	if fcaAt <= scaAt {
		t.Fatalf("FCA regular write at %v not delayed vs SCA %v", fcaAt, scaAt)
	}
}

func TestSameLineProgramOrder(t *testing.T) {
	// A ccwb fills SCA's 1-entry counter queue, so a CA write to X
	// stalls: its counter line is a different one. A plain write to X
	// must wait behind it (same-line program order), while a plain write
	// to another line Y bypasses both.
	cfg := config.Default(config.SCA)
	cfg.CounterWriteQueue = 1
	r := newRigCfg(cfg)
	names := []string{"ca-x", "plain-x", "plain-y"}
	var order []string
	accepted := r.eng.Register(func(arg uint64) { order = append(order, names[arg]) })
	const x, y = mem.Addr(8 * 64), mem.Addr(16 * 64)
	r.run(func() {
		r.mc.Write(0x40, lineOf(1), false, sim.NoHandler, 0)
		r.mc.CounterWriteback(0x40, sim.NoHandler, 0)
		r.mc.Write(x, lineOf(2), true, accepted, 0)
		r.mc.Write(x, lineOf(3), false, accepted, 1)
		r.mc.Write(y, lineOf(4), false, accepted, 2)
	})
	if want := []string{"plain-y", "ca-x", "plain-x"}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("acceptance order = %v, want %v", order, want)
	}
}

func TestCounterWriteNeverBypassesDataWrite(t *testing.T) {
	// Fill the data queue so a data write stalls, then issue a ccwb for
	// a dirty counter line. The counter write must NOT be accepted
	// before the stalled data write — a counter writeback has to cover
	// every write the program issued before it.
	cfg := config.Default(config.SCA)
	cfg.DataWriteQueue = 1
	r := newRigCfg(cfg)
	var order []string
	r.run(func() {
		r.mc.Write(0x40, lineOf(1), false, sim.NoHandler, 0) // occupies the 1-entry queue, dirties a counter
		r.mc.Write(8*64, lineOf(2), false, r.on(func() { order = append(order, "data") }), 0)
		r.mc.CounterWriteback(0x40, r.on(func() { order = append(order, "ctr") }), 0)
	})
	if len(order) != 2 || order[0] != "data" || order[1] != "ctr" {
		t.Fatalf("acceptance order = %v, want [data ctr]", order)
	}
}

func TestFailingScanAllocationFree(t *testing.T) {
	// Fill the data queue at t=0 and leave a backlog of plain and CA
	// writes (every fourth) twice the acceptance window long. A scan
	// then accepts nothing: it must allocate nothing, count one stall per
	// request the window covers, and one ready-bit wait per windowed CA
	// write, since the counter queue still has room for its half.
	r := newRig(config.SCA)
	n := r.cfg.DataWriteQueue + 2*acceptWindow
	r.eng.Schedule(0, func() {
		for i := 0; i < n; i++ {
			r.mc.Write(mem.Addr(i*64), lineOf(byte(i)), i%4 == 0, sim.NoHandler, 0)
		}
	})
	r.eng.RunUntil(0)
	if d, c := r.mc.QueueOccupancy(); d != r.cfg.DataWriteQueue || c >= r.cfg.CounterWriteQueue {
		t.Fatalf("occupancy = %d/%d, want a full data queue and counter room", d, c)
	}
	if got := r.mc.Backlog(); got != 2*acceptWindow {
		t.Fatalf("backlog = %d, want %d", got, 2*acceptWindow)
	}
	stalls, waits := r.st.Count(stats.WriteQueueStalls), r.st.Count(stats.ReadyBitWaits)
	r.mc.tryAccept()
	if got := r.st.Count(stats.WriteQueueStalls) - stalls; got != acceptWindow {
		t.Fatalf("one scan counted %d stalls, want %d", got, acceptWindow)
	}
	if got := r.st.Count(stats.ReadyBitWaits) - waits; got != acceptWindow/4 {
		t.Fatalf("one scan counted %d ready-bit waits, want %d", got, acceptWindow/4)
	}
	stalls = r.st.Count(stats.WriteQueueStalls)
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, r.mc.tryAccept); allocs != 0 {
		t.Fatalf("failing scan allocates %v times, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call besides the measured runs.
	if got := r.st.Count(stats.WriteQueueStalls) - stalls; got != (runs+1)*acceptWindow {
		t.Fatalf("%d scans counted %d stalls, want %d", runs+1, got, (runs+1)*acceptWindow)
	}
	if got := r.mc.Backlog(); got != 2*acceptWindow {
		t.Fatalf("backlog = %d after failing scans, want %d", got, 2*acceptWindow)
	}
}

func TestDrainADRPersistsQueuedEntries(t *testing.T) {
	r := newRig(config.SCA)
	// Schedule a write and crash "immediately" after acceptance, long
	// before the ~361ns device write completes.
	r.eng.Schedule(0, func() { r.mc.Write(0x40, lineOf(7), true, sim.NoHandler, 0) })
	r.eng.RunUntil(10 * sim.Nanosecond)
	if _, ok := r.dev.Image().Read(0x40); ok {
		t.Fatal("write completed before crash; test is vacuous")
	}
	r.mc.DrainADR(r.eng.Now())
	got, ok := r.decryptFromImage(0x40)
	if !ok || got != lineOf(7) {
		t.Fatal("ADR drain did not persist the CA pair consistently")
	}
}

func TestCAPairNeverHalfPersisted(t *testing.T) {
	// Sweep crash points through a CA write's lifetime; at every point
	// the data line must decrypt correctly or be entirely absent.
	plain := lineOf(0x33)
	for _, crashAt := range []sim.Time{0, 1, 10 * sim.Nanosecond, 50 * sim.Nanosecond,
		100 * sim.Nanosecond, 400 * sim.Nanosecond, 800 * sim.Nanosecond} {
		r := newRig(config.SCA)
		r.eng.Schedule(0, func() { r.mc.Write(0x40, plain, true, sim.NoHandler, 0) })
		r.eng.RunUntil(crashAt)
		r.mc.DrainADR(r.eng.Now())
		got, ok := r.decryptFromImage(0x40)
		if ok && got != plain {
			t.Fatalf("crash at %v: line present but garbled (counter/data out of sync)", crashAt)
		}
	}
}

func TestDirtyCountersLostWithoutAtomicity(t *testing.T) {
	// Under Ideal, a crash after the data write completes but with the
	// counter still dirty on-chip leaves NVM undecryptable — the
	// paper's Fig. 3(a)/Fig. 4 failure, reproduced functionally.
	r := newRig(config.Ideal)
	plain := lineOf(0x44)
	r.eng.Schedule(0, func() { r.mc.Write(0x40, plain, false, sim.NoHandler, 0) })
	r.eng.Run() // data write completes; counter never written back
	if len(r.mc.DirtyCounterLines()) == 0 {
		t.Fatal("expected a dirty counter line on-chip")
	}
	r.mc.DrainADR(r.eng.Now())
	got, ok := r.decryptFromImage(0x40)
	if !ok {
		t.Fatal("data line missing from image")
	}
	if got == plain {
		t.Fatal("decryption succeeded with a stale counter — inconsistency not reproduced")
	}
}

func TestCoLocatedAlwaysInSync(t *testing.T) {
	for _, d := range []config.Design{config.CoLocated, config.CoLocatedCC} {
		r := newRig(d)
		plain := lineOf(0x55)
		r.eng.Schedule(0, func() { r.mc.Write(0x40, plain, false, sim.NoHandler, 0) })
		r.eng.Run()
		got, ok := r.decryptFromImage(0x40)
		if !ok || got != plain {
			t.Fatalf("%v: co-located write not decryptable", d)
		}
	}
}

func TestCounterCacheEvictionWritesBack(t *testing.T) {
	// A tiny counter cache forces evictions of dirty counter lines,
	// which must be written back (not dropped) under SCA.
	cfg := config.Default(config.SCA)
	cfg.CounterCache.SizeBytes = 2 * 64 * 16 // 2 sets x 16 ways
	r := newRigCfg(cfg)
	r.run(func() {
		// 40 distinct counter lines (stride 8 data lines) overflow
		// the 32-line counter cache.
		for i := 0; i < 40; i++ {
			r.mc.Write(mem.Addr(i*8*64), lineOf(byte(i)), false, sim.NoHandler, 0)
		}
	})
	if r.st.Count(stats.CounterCacheWB) == 0 {
		t.Fatal("no eviction writebacks from the counter cache")
	}
	if r.st.Count(stats.CounterWrites) == 0 {
		t.Fatal("evicted dirty counters never reached NVM")
	}
}

func TestOverwriteKeepsLatestDecryptable(t *testing.T) {
	// Writing the same line twice bumps its counter; after a flush the
	// image must decrypt to the latest value.
	r := newRig(config.SCA)
	r.run(func() {
		r.mc.Write(0x40, lineOf(1), false, sim.NoHandler, 0)
		r.mc.Write(0x40, lineOf(2), false, sim.NoHandler, 0)
	})
	r.run(func() { r.mc.FlushCounters(sim.NoHandler, 0) })
	got, ok := r.decryptFromImage(0x40)
	if !ok || got != lineOf(2) {
		t.Fatal("latest write not decryptable after flush")
	}
	if r.mc.Counters().Current(0x40) != 2 {
		t.Fatalf("counter = %d, want 2", r.mc.Counters().Current(0x40))
	}
}

func TestGlobalCounterMonotonic(t *testing.T) {
	r := newRig(config.SCA)
	r.run(func() {
		for i := 0; i < 5; i++ {
			r.mc.Write(mem.Addr(i*64), lineOf(byte(i)), false, sim.NoHandler, 0)
		}
	})
	if r.mc.Counters().Global() != 5 {
		t.Fatalf("global counter = %d, want 5", r.mc.Counters().Global())
	}
}

func TestNoEncryptionHasNoCryptoArtifacts(t *testing.T) {
	r := newRig(config.NoEncryption)
	r.run(func() {
		r.mc.Write(0x40, lineOf(9), false, sim.NoHandler, 0)
		r.mc.Read(0x1000, sim.NoHandler, 0)
	})
	if r.mc.Encryption() != nil {
		t.Fatal("NoEncryption has an encryption engine")
	}
	if r.st.Count(stats.CounterWrites) != 0 {
		t.Fatal("NoEncryption wrote counters")
	}
	got, _ := r.dev.Image().Read(0x40)
	if got != lineOf(9) {
		t.Fatal("NoEncryption stored non-plaintext")
	}
}

func TestFlushCountersEmptyCache(t *testing.T) {
	r := newRig(config.SCA)
	fired := false
	r.run(func() { r.mc.FlushCounters(r.on(func() { fired = true }), 0) })
	if !fired {
		t.Fatal("FlushCounters with nothing dirty never completed")
	}
}

func TestQueueOccupancyVisible(t *testing.T) {
	r := newRig(config.SCA)
	r.eng.Schedule(0, func() { r.mc.Write(0x40, lineOf(1), false, sim.NoHandler, 0) })
	r.eng.RunUntil(1 * sim.Nanosecond)
	d, c := r.mc.QueueOccupancy()
	if d != 1 || c != 0 {
		t.Fatalf("occupancy = %d/%d, want 1/0", d, c)
	}
	r.eng.Run()
	d, c = r.mc.QueueOccupancy()
	if d != 0 || c != 0 {
		t.Fatalf("occupancy after drain = %d/%d", d, c)
	}
}

func TestOsirisNeverPairs(t *testing.T) {
	// Osiris ignores CounterAtomic annotations entirely: recovery
	// regenerates counters from ECC, so no write pays the pairing.
	r := newRig(config.Osiris)
	r.run(func() {
		r.mc.Write(0x40, lineOf(1), true, sim.NoHandler, 0)
		r.mc.Write(0x80, lineOf(2), false, sim.NoHandler, 0)
	})
	if got := r.st.Count(stats.CAWrites); got != 0 {
		t.Fatalf("Osiris CA writes = %d, want 0", got)
	}
}

func TestOsirisCCWBFree(t *testing.T) {
	r := newRig(config.Osiris)
	var at sim.Time
	r.run(func() {
		r.mc.Write(0x40, lineOf(1), false, sim.NoHandler, 0)
		r.mc.CounterWriteback(0x40, r.on(func() { at = r.eng.Now() }), 0)
	})
	if at != 0 {
		t.Fatalf("Osiris ccwb completed at %d, want instant no-op", at)
	}
}

func TestOsirisStopLossForcesCounterWrite(t *testing.T) {
	// Rewriting one line StopLoss times must push its counter line to
	// NVM without any software request.
	cfg := config.Default(config.Osiris)
	cfg.StopLoss = 3
	r := newRigCfg(cfg)
	r.run(func() {
		for i := 0; i < 3; i++ {
			r.mc.Write(0x40, lineOf(byte(i)), false, sim.NoHandler, 0)
		}
	})
	if got := r.st.Count(stats.StopLossCounterWrites); got != 1 {
		t.Fatalf("stop-loss counter writes = %d, want 1", got)
	}
	if got := r.st.Count(stats.CounterWrites); got == 0 {
		t.Fatal("stop-loss counter write never reached NVM")
	}
	// After the forced writeback the lag restarts: two more writes stay
	// under the window.
	r.run(func() {
		r.mc.Write(0x40, lineOf(9), false, sim.NoHandler, 0)
		r.mc.Write(0x40, lineOf(10), false, sim.NoHandler, 0)
	})
	if got := r.st.Count(stats.StopLossCounterWrites); got != 1 {
		t.Fatalf("lag did not reset: %d stop-loss writes", got)
	}
}

func TestOsirisRecoveryWindow(t *testing.T) {
	// After a crash with the counter lagging by < StopLoss, candidate
	// search over [stored, stored+StopLoss] must recover the plaintext
	// via the persisted checksum.
	cfg := config.Default(config.Osiris)
	cfg.StopLoss = 4
	r := newRigCfg(cfg)
	plainLast := lineOf(3)
	r.run(func() {
		r.mc.Write(0x40, lineOf(1), false, sim.NoHandler, 0)
		r.mc.Write(0x40, lineOf(2), false, sim.NoHandler, 0)
		r.mc.Write(0x40, plainLast, false, sim.NoHandler, 0) // counter = 3, never written back
	})
	w, ok := r.dev.Image().Writes(), false
	var rec mem.Line
	var stored uint64 // counter region never written: stored = 0
	last := w[len(w)-1]
	for c := stored; c <= stored+uint64(cfg.StopLoss); c++ {
		plain := r.mc.Encryption().Decrypt(last.Data, 0x40, c)
		if ctrenc.Checksum(plain, 0x40) == last.Sum {
			rec, ok = plain, true
			break
		}
	}
	if !ok || rec != plainLast {
		t.Fatalf("candidate search failed: ok=%v", ok)
	}
}

// Property: for any random mix of writes, CA flags, ccwbs and designs, the
// controller always drains completely, and the flushed image decrypts to
// the last value written per line.
func TestPropertyControllerDrainsAndDecrypts(t *testing.T) {
	f := func(ops []struct {
		Line byte
		Val  byte
		CA   bool
		CCWB bool
	}, designPick uint8) bool {
		d := config.AllDesigns[int(designPick)%len(config.AllDesigns)]
		r := newRig(d)
		last := map[mem.Addr]mem.Line{}
		r.run(func() {
			for _, op := range ops {
				addr := mem.Addr(op.Line) * 64
				if op.CCWB {
					r.mc.CounterWriteback(addr, sim.NoHandler, 0)
					continue
				}
				l := lineOf(op.Val)
				last[addr] = l
				r.mc.Write(addr, l, op.CA, sim.NoHandler, 0)
			}
		})
		r.run(func() { r.mc.FlushCounters(sim.NoHandler, 0) })
		if r.mc.PendingWork() != 0 {
			return false
		}
		for addr, want := range last {
			got, ok := r.decryptFromImage(addr)
			if !ok || got != want {
				t.Logf("%v: line %#x decrypts wrong", d, addr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: after DrainADR at any instant, every data line in the image
// either decrypts with its NVM counter or (for lazily-countered designs)
// is covered by software protocol state — but it is NEVER half of a CA
// pair. We verify the CA half-pair impossibility: a line written ONLY with
// CA writes always decrypts.
func TestPropertyCAOnlyLinesAlwaysDecrypt(t *testing.T) {
	f := func(vals []byte, crashNs uint16) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 24 {
			vals = vals[:24]
		}
		r := newRig(config.SCA)
		last := map[mem.Addr]mem.Line{}
		r.eng.Schedule(0, func() {
			for i, v := range vals {
				addr := mem.Addr(i%6) * 64 * 8 // distinct counter lines
				l := lineOf(v)
				last[addr] = l
				r.mc.Write(addr, l, true, sim.NoHandler, 0)
			}
		})
		r.eng.RunUntil(sim.Time(crashNs) * sim.Nanosecond)
		r.mc.DrainADR(r.eng.Now())
		for addr, want := range last {
			got, ok := r.decryptFromImage(addr)
			if !ok {
				continue // neither half persisted: consistent
			}
			// Present lines must decrypt to SOME value we wrote
			// there (the latest persisted), never garbage.
			valid := got == want
			for _, v := range vals {
				if got == lineOf(v) {
					valid = true
				}
			}
			if !valid {
				t.Logf("line %#x garbled after crash at %dns", addr, crashNs)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestReadQueueCapacity(t *testing.T) {
	// Issue twice the read queue's capacity of simultaneous reads: the
	// overflow must wait (counted), and all reads must still complete.
	cfg := config.Default(config.NoEncryption)
	cfg.ReadQueueEntries = 4
	r := newRigCfg(cfg)
	completed := 0
	r.run(func() {
		for i := 0; i < 8; i++ {
			r.mc.Read(mem.Addr(i*64), r.on(func() { completed++ }), 0)
		}
	})
	if completed != 8 {
		t.Fatalf("completed = %d, want 8", completed)
	}
	if r.st.Count(stats.ReadQueueFull) == 0 {
		t.Fatal("read queue overflow never counted")
	}
}

func TestReadWaiterRetriesBehindNewerRead(t *testing.T) {
	// A waiting read gets its turn as a posted retry, so a read issued
	// from the completing read's own handler takes the freed slot first
	// and the waiter queues again: completion order A, C, B.
	cfg := config.Default(config.NoEncryption)
	cfg.ReadQueueEntries = 1
	r := newRigCfg(cfg)
	var order []byte
	var done sim.Handler
	done = r.eng.Register(func(arg uint64) {
		order = append(order, byte(arg))
		if arg == 'A' {
			r.mc.Read(0x300, done, 'C')
		}
	})
	r.run(func() {
		r.mc.Read(0x100, done, 'A')
		r.mc.Read(0x200, done, 'B')
	})
	if string(order) != "ACB" {
		t.Fatalf("completion order = %q, want ACB", order)
	}
	if got := r.st.Count(stats.ReadQueueFull); got != 2 {
		t.Fatalf("read-queue-full waits = %d, want 2 (B waits twice)", got)
	}
}

func TestFlushCountersCompletesOnce(t *testing.T) {
	// Dirty counters in three counter lines: the flush's handler runs
	// once, after the last counter write is accepted, with its argument.
	r := newRig(config.SCA)
	var got []uint64
	done := r.eng.Register(func(arg uint64) { got = append(got, arg) })
	r.run(func() {
		for i := 0; i < 3; i++ {
			r.mc.Write(mem.Addr(i*8*64), lineOf(byte(i)), false, sim.NoHandler, 0)
		}
	})
	if n := len(r.mc.DirtyCounterLines()); n != 3 {
		t.Fatalf("%d dirty counter lines before the flush, want 3", n)
	}
	r.run(func() { r.mc.FlushCounters(done, 7) })
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("flush handler calls = %v, want [7]", got)
	}
	if r.st.Count(stats.CounterWrites) != 3 || r.mc.PendingWork() != 0 {
		t.Fatalf("counter writes = %d, pending = %d", r.st.Count(stats.CounterWrites), r.mc.PendingWork())
	}
}

// TestSteadyStateAllocs pins one controller cycle over a warm 64-line
// set on every design, averaged over 64 cycles (16 of each phase), at
// zero allocations. A write cycle is a Write, counter-atomic on
// alternate writes, with a CounterWriteback after every fourth, then a
// drain; a read cycle is a Read and a drain. Queue entries, device
// writes and reads are slab records named by index, and every event
// names a handler registered at construction.
func TestSteadyStateAllocs(t *testing.T) {
	for _, d := range config.AllDesigns {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			r := newRig(d)
			nop := r.on(func() {})
			i := 0
			write := func() {
				a := mem.Addr(i%64) * 64
				r.mc.Write(a, lineOf(byte(i)), i%2 == 1, sim.NoHandler, 0)
				if i%4 == 3 {
					r.mc.CounterWriteback(a, nop, 0)
				}
				i++
				r.eng.Run()
			}
			for i < 128 {
				write()
			}
			if got := testing.AllocsPerRun(64, write); got > 0 {
				t.Errorf("write cycle allocates %v times, pin 0", got)
			}
			read := func() {
				r.mc.Read(mem.Addr(i%64)*64, nop, 0)
				i++
				r.eng.Run()
			}
			if got := testing.AllocsPerRun(64, read); got > 0 {
				t.Errorf("read cycle allocates %v times, pin 0", got)
			}
		})
	}
}
