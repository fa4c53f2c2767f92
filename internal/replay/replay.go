// Package replay executes per-core operation traces against a timed model
// of the full machine: private L1 caches, a shared L2, the encrypted
// memory controller, and the PCM device. One trace set can be replayed
// under any of the six designs, which is how every figure in the paper is
// regenerated from identical work.
//
// Core model: loads block until data is available; stores update the cache
// hierarchy immediately (a store buffer hides allocation latency); clwb
// and counter_cache_writeback are non-blocking but tracked, and sfence
// blocks until all of the core's tracked writebacks are accepted as
// persistent (Intel ADR semantics, §2.1/§6.1 of the paper).
package replay

import (
	"fmt"

	"encnvm/internal/cache"
	"encnvm/internal/config"
	"encnvm/internal/machine"
	"encnvm/internal/machine/engines"
	"encnvm/internal/mem"
	"encnvm/internal/memctrl"
	"encnvm/internal/nvm"
	"encnvm/internal/probe"
	"encnvm/internal/sim"
	"encnvm/internal/stats"
	"encnvm/internal/trace"
)

// System is one simulated machine mid-replay.
type System struct {
	Eng  *sim.Engine
	Cfg  *config.Config
	St   *stats.Stats
	Dev  *nvm.Device
	MC   *memctrl.Controller
	Meta engines.Engine
	Spec *machine.Spec // fully-resolved machine description

	l2    *cache.Cache
	cores []*core
	pb    *probe.Probe // nil unless observability is attached

	// plain is the replay-time plaintext program image, updated in
	// program order per core as store ops execute.
	plain *mem.Space
	// caLine marks lines whose most recent store targeted a
	// CounterAtomic variable; their writebacks use the CA protocol.
	caLine mem.Table[bool]

	// Handlers registered once per System; each event's argument is the
	// index of the core it concerns.
	stepH, writebackH, readDoneH sim.Handler

	finished int
	started  bool
	flushed  bool
	// The end-of-run flush writes lines back through a bounded window:
	// flushNext indexes the next line to write, flushInFlight counts
	// writes not yet accepted, and flushH is their acceptance handler,
	// registered by flush (crash injections never flush).
	flushLines    []mem.Addr
	flushNext     int
	flushInFlight int
	flushH        sim.Handler
	// firstTx is when the first TxBegin retired on any core; the
	// measured phase of a run (the paper's methodology) excludes the
	// setup that precedes it.
	firstTx    sim.Time
	firstTxSet bool
}

// core is one replaying hardware thread.
type core struct {
	sys *System
	id  int
	l1  *cache.Cache
	tr  *trace.Trace
	n   int // tr.Len(), cached for the hot loop
	pc  int

	// retire, when non-nil, records the retire instant of every op (the
	// simulated time by which the op's effects are in the machine and
	// the next op's are not yet): pre-sized by RecordRetireTimes, filled
	// through nret so the hot loop never appends.
	retire []sim.Time
	nret   int

	outstanding int      // tracked clwb/ccwb writebacks not yet accepted
	fenceWait   bool     // blocked in sfence until outstanding == 0
	fenceStart  sim.Time // when the current fence began blocking
	done        bool
	doneAt      sim.Time
	// txEnds records the completion time of each transaction: pre-sized
	// to the trace's TxEnd count at build, filled through ntx so the hot
	// loop never appends.
	txEnds []sim.Time
	ntx    int

	// stage is the 1-based index into txStageNames of the transaction
	// stage span currently open on this core's timeline track (0 when no
	// transaction is in flight). Only maintained when a probe is attached.
	stage int
}

// txStageNames are the per-transaction pipeline stages shown on the
// timeline. They are inferred from the persist runtime's fence structure:
// a transaction commit retires exactly four persist barriers — after the
// log payload, the log seal, the in-place mutation, and the commit-switch
// counter write — so each retired fence inside a transaction closes one
// stage and opens the next.
var txStageNames = [...]string{"log", "log-seal", "mutate", "commit-switch"}

// NewMachine attaches replay cores to an assembled machine, one trace
// per core; len(traces) must equal the machine's core count. Each trace
// is checked (Trace.Check validates a trace once and then reads its
// record, so attaching a shared trace again costs nothing), and the
// trace lengths pre-size the event queue, the device write log, and the
// per-transaction history (sized by the TxEnd count the check returns)
// so the replay hot loop runs without growth allocations.
func NewMachine(m *machine.Machine, traces []*trace.Trace) (*System, error) {
	cfg := m.Cfg
	if len(traces) != cfg.NumCores {
		return nil, fmt.Errorf("replay: %d traces for %d cores", len(traces), cfg.NumCores)
	}
	sys := &System{
		Eng:   m.Eng,
		Cfg:   cfg,
		St:    m.St,
		Dev:   m.Dev,
		MC:    m.MC,
		Meta:  m.Meta,
		Spec:  m.Spec,
		l2:    m.L2,
		plain: mem.NewSpace(),
	}
	sys.stepH = sys.Eng.Register(sys.step)
	sys.writebackH = sys.Eng.Register(sys.writebackDone)
	sys.readDoneH = sys.Eng.Register(sys.readDone)
	totalOps := 0
	for i, tr := range traces {
		if tr == nil {
			return nil, fmt.Errorf("replay: core %d: nil trace", i)
		}
		txEnds, err := tr.Check()
		if err != nil {
			return nil, fmt.Errorf("replay: core %d: %w", i, err)
		}
		totalOps += tr.Len()
		c := &core{
			sys: sys, id: i, l1: cache.New(cfg.L1), tr: tr, n: tr.Len(),
			txEnds: make([]sim.Time, txEnds),
		}
		sys.cores = append(sys.cores, c)
	}
	// The event queue holds in-flight events (bounded by cores plus
	// controller occupancy), not one per op; a modest trace-scaled
	// reservation absorbs the startup ramp without oversizing.
	reserve := 256 + totalOps
	if reserve > 4096 {
		reserve = 4096
	}
	sys.Eng.ReserveEvents(reserve)
	sys.Dev.Image().SetLogHint(totalOps)
	return sys, nil
}

// Plain returns the replay-time plaintext image (the program's view).
func (s *System) Plain() *mem.Space { return s.plain }

// counterAtomic reports whether the latest store to line a targeted a
// CounterAtomic variable.
func (s *System) counterAtomic(a mem.Addr) bool {
	ca, _ := s.caLine.Get(a)
	return ca
}

// RecordRetireTimes arms per-op retire-time recording on every core.
// Call before Start/Run. The crash campaign uses the recorded times as
// the per-op crash-point deadlines: crashing at RetireTimes(c)[k] yields
// the NVM state after ops 0..k and before any effect of op k+1. Batched
// ops (cache hits, compute, transaction markers) retire at their exact
// accumulated instant even though they share one engine event; ops that
// touch the memory controller retire at their dispatch instant, which is
// when their controller interactions occur.
func (s *System) RecordRetireTimes() {
	for _, c := range s.cores {
		c.retire = make([]sim.Time, c.n)
		c.nret = 0
	}
}

// RetireTimes returns the recorded retire instants of the given core's
// ops, one per trace op, nondecreasing. Valid after the run completes
// and only if RecordRetireTimes was called first.
func (s *System) RetireTimes(core int) []sim.Time {
	c := s.cores[core]
	return c.retire[:c.nret]
}

// mark records op retirement at the given instant when recording is on.
func (c *core) mark(at sim.Time) {
	if c.retire != nil {
		c.retire[c.nret] = at
		c.nret++
	}
}

// AttachProbe wires the observability probe through every layer of the
// system — device, controller, and cores — and, when a metrics sink is
// attached, hooks the engine clock and registers the standard column set.
// Call after NewMachine and before Start/Run. A nil probe is a no-op.
func (s *System) AttachProbe(p *probe.Probe) {
	if p == nil {
		return
	}
	s.pb = p
	s.Dev.SetProbe(p)
	s.MC.SetProbe(p)
	p.EmitTopology(s.Cfg.NumCores, s.Cfg.Banks)
	mw := p.Metrics()
	if mw == nil {
		return
	}
	s.Eng.OnAdvance(p.OnAdvance)
	mw.Gauge("mc.data_q", func() float64 { d, _ := s.MC.QueueOccupancy(); return float64(d) })
	mw.Gauge("mc.counter_q", func() float64 { _, c := s.MC.QueueOccupancy(); return float64(c) })
	mw.Gauge("mc.pending", func() float64 { return float64(s.MC.Backlog()) })
	mw.Gauge("ctrcache.dirty_lines", func() float64 { return float64(s.MC.DirtyCounterCount()) })
	mw.Cumulative("nvm.data_bytes", func() float64 { return float64(s.St.Count(stats.DataBytesWritten)) })
	mw.Cumulative("nvm.counter_bytes", func() float64 { return float64(s.St.Count(stats.CounterBytesWritten)) })
	mw.Cumulative("nvm.bytes_read", func() float64 { return float64(s.St.Count(stats.BytesRead)) })
	mw.Cumulative("sw.transactions", func() float64 { return float64(s.St.Count(stats.Transactions)) })
	mw.Cumulative("enc.line_encryptions", func() float64 { return float64(s.MC.EncryptedWrites()) })
	mw.Cumulative("sim.events", func() float64 { return float64(s.Eng.Steps()) })
	mw.Ratio("ctrcache.hit_rate",
		func() float64 { return float64(s.St.Count(stats.CounterCacheHits)) },
		func() float64 { return float64(s.St.Count(stats.CounterCacheMiss)) })
	mw.Ratio("l2.hit_rate",
		func() float64 { return float64(s.St.Count(stats.L2Hits)) },
		func() float64 { return float64(s.St.Count(stats.L2Misses)) })
	mw.Utilization("nvm.bus_util", func() float64 { return float64(s.Dev.BusBusyTime()) })
}

// Start schedules every core's first step at t=0. Only the first call
// does anything, so Run and repeated RunUntil calls resume the replay
// instead of starting a second step chain per core.
func (s *System) Start() {
	if s.started {
		return
	}
	s.started = true
	for _, c := range s.cores {
		c.next(0)
	}
}

// Run replays all traces to completion, flushes the cache hierarchy and
// counter cache so the final NVM image is complete, and returns the
// runtime: the instant the last core retired its last operation (flush
// time excluded, as in the paper's run-to-completion methodology).
func (s *System) Run() sim.Time {
	s.Start()
	s.Eng.Run()
	runtime := s.RuntimeSoFar()
	s.flush()
	s.Eng.Run()
	if s.MC.PendingWork() != 0 {
		panic("replay: controller work left after full drain")
	}
	return runtime
}

// RunUntil replays until the simulated deadline and returns the time
// reached — the crash-injection entry point. No flush happens; the caller
// owns ADR draining. Calls with increasing deadlines advance one replay:
// RunUntil(a) then RunUntil(b) leaves the machine as RunUntil(b) does.
func (s *System) RunUntil(deadline sim.Time) sim.Time {
	s.Start()
	return s.Eng.RunUntil(deadline)
}

// RuntimeSoFar returns the latest core-retire time observed.
func (s *System) RuntimeSoFar() sim.Time {
	var max sim.Time
	for _, c := range s.cores {
		if c.doneAt > max {
			max = c.doneAt
		}
	}
	return max
}

// MeasuredRuntime returns the duration of the transaction phase: from the
// first TxBegin retired on any core to the last core's retire time. Runs
// without transactions fall back to the full runtime.
func (s *System) MeasuredRuntime() sim.Time {
	rt := s.RuntimeSoFar()
	if !s.firstTxSet || s.firstTx > rt {
		return rt
	}
	return rt - s.firstTx
}

// Transactions returns the total completed transactions across cores.
func (s *System) Transactions() int {
	n := 0
	for _, c := range s.cores {
		n += c.ntx
	}
	return n
}

// Throughput returns completed transactions per simulated second of the
// measured (transaction) phase.
func (s *System) Throughput() float64 {
	rt := s.MeasuredRuntime()
	if rt == 0 {
		return 0
	}
	return float64(s.Transactions()) / (float64(rt) / float64(sim.Second))
}

// flush writes every dirty line in the hierarchy and every dirty counter
// back to NVM so the image is self-consistent for functional checks.
func (s *System) flush() {
	if s.flushed {
		return
	}
	s.flushed = true
	var dirty mem.Table[struct{}]
	for _, c := range s.cores {
		for _, a := range c.l1.CleanAll() {
			dirty.Ptr(a)
		}
	}
	for _, a := range s.l2.CleanAll() {
		dirty.Ptr(a)
	}
	s.flushLines = make([]mem.Addr, 0, dirty.Len())
	dirty.Each(func(a mem.Addr, _ *struct{}) { s.flushLines = append(s.flushLines, a) })
	s.flushH = s.Eng.Register(s.flushAccepted)
	s.Eng.Schedule(0, s.pumpFlush)
}

// flushWindow paces the final writebacks so a multi-megabyte dirty set
// does not flood the controller's accept queue at a single instant (the
// flush is outside the measured runtime).
const flushWindow = 64

// pumpFlush writes back dirty lines while the window has room, and
// flushes the counter cache once every line is accepted.
func (s *System) pumpFlush() {
	for s.flushInFlight < flushWindow && s.flushNext < len(s.flushLines) {
		a := s.flushLines[s.flushNext]
		s.flushNext++
		s.flushInFlight++
		s.MC.Write(a, s.plain.ReadLine(a), s.counterAtomic(a), s.flushH, 0)
	}
	if s.flushNext == len(s.flushLines) && s.flushInFlight == 0 {
		s.MC.FlushCounters(sim.NoHandler, 0)
	}
}

// flushAccepted is the acceptance handler for the flush's writebacks.
func (s *System) flushAccepted(uint64) {
	s.flushInFlight--
	s.pumpFlush()
}

// ---------------------------------------------------------------------------
// Core execution

// maxBacklog is the writeback backpressure threshold: a core issuing new
// work pauses while more than this many writes await controller
// acceptance.
const maxBacklog = 128

// maxBatch bounds how much consecutive cache-hit work one event may retire
// at once. Batched ops have zero memory-controller interaction, so the
// timing is exact; the bound only caps how coarse cross-core interleaving
// in the shared L2 may become.
const maxBatch = 200 * sim.Nanosecond

// step retires ops until the core blocks or the trace ends. Consecutive
// ops that stay inside the cache hierarchy (hits, compute, transaction
// markers) are retired in one event with their costs accumulated; any op
// that touches the memory controller or can block re-enters step at the
// accumulated time so its interactions happen at the right instant.
func (c *core) step() {
	if c.sys.MC.Backlog() > maxBacklog {
		c.sys.St.Inc(stats.BackpressureStalls, 1)
		c.next(20 * sim.Nanosecond)
		return
	}
	cfg := c.sys.Cfg
	var acc sim.Time
	var (
		kind   trace.Kind
		addr   mem.Addr
		cycles uint32
		ca     bool
	)
	for acc < maxBatch {
		if c.pc >= c.n {
			if acc > 0 {
				c.next(acc)
				return
			}
			if !c.done {
				c.done = true
				c.doneAt = c.sys.Eng.Now()
				c.sys.finished++
			}
			return
		}
		kind, addr, cycles, ca = c.tr.Head(c.pc)
		switch kind {
		case trace.Compute:
			acc += sim.Time(cycles) * cfg.CPUCycle
			c.pc++
			c.mark(c.sys.Eng.Now() + acc)
			continue
		case trace.Read:
			if c.l1.Contains(addr) {
				c.l1.Access(addr, false)
				c.sys.St.Inc(stats.L1Hits, 1)
				acc += cfg.L1.HitTime
				c.pc++
				c.mark(c.sys.Eng.Now() + acc)
				continue
			}
		case trace.Write:
			if c.l1.Contains(addr) {
				c.sys.plain.WriteLine(addr.LineAddr(), c.tr.Line(c.pc))
				*c.sys.caLine.Ptr(addr) = ca
				c.l1.Access(addr, true)
				c.sys.St.Inc(stats.L1Hits, 1)
				acc += cfg.L1.HitTime
				c.pc++
				c.mark(c.sys.Eng.Now() + acc)
				continue
			}
		case trace.TxBegin:
			if !c.sys.firstTxSet {
				c.sys.firstTxSet = true
				c.sys.firstTx = c.sys.Eng.Now() + acc
			}
			if c.sys.pb != nil {
				at := c.sys.Eng.Now() + acc
				c.sys.pb.SpanBegin(c.id, "tx", at)
				c.sys.pb.SpanBegin(c.id, txStageNames[0], at)
				c.stage = 1
			}
			c.pc++
			c.mark(c.sys.Eng.Now() + acc)
			continue
		case trace.TxEnd:
			c.txEnds[c.ntx] = c.sys.Eng.Now() + acc
			c.ntx++
			c.sys.St.Inc(stats.Transactions, 1)
			if c.stage != 0 {
				at := c.sys.Eng.Now() + acc
				if c.stage <= len(txStageNames) {
					c.sys.pb.SpanEnd(c.id, at) // open stage span
				}
				c.sys.pb.SpanEnd(c.id, at) // the tx span
				c.stage = 0
			}
			c.pc++
			c.mark(c.sys.Eng.Now() + acc)
			continue
		}
		// Complex op: burn the accumulated time first so controller
		// interactions happen at the correct instant.
		break
	}
	if acc > 0 {
		c.next(acc)
		return
	}

	// kind, addr and ca still hold the op read at the top of the batch
	// loop: the complex path is only reached via break with acc == 0,
	// i.e. on the iteration that read c.pc.
	i := c.pc
	c.pc++
	// A controller-touching op retires at its dispatch instant: its
	// synchronous controller interactions happen now, and the next op
	// cannot run before the engine advances past this event.
	c.mark(c.sys.Eng.Now())

	switch kind {
	case trace.Read: // L1 miss (hits batched above)
		c.read(addr)

	case trace.Write: // L1 miss
		c.write(i, addr, ca)

	case trace.Clwb:
		c.clwb(addr)

	case trace.Sfence:
		c.sys.St.Inc(stats.PersistBarriers, 1)
		if c.outstanding == 0 {
			c.fenceRetired(c.sys.Eng.Now())
			c.next(cfg.CPUCycle)
		} else {
			c.fenceWait = true // resumed by writebackDone
			c.fenceStart = c.sys.Eng.Now()
		}

	case trace.CCWB:
		c.outstanding++
		c.sys.MC.CounterWriteback(addr, c.sys.writebackH, uint64(c.id))
		c.next(cfg.CounterCache.HitTime)

	default:
		panic(fmt.Sprintf("replay: unknown op kind %v", kind))
	}
}

// next schedules the following op after the given delay.
func (c *core) next(d sim.Time) { c.sys.Eng.Post(d, c.sys.stepH, uint64(c.id)) }

// step, writebackDone and readDone are the System's registered handlers;
// each runs its namesake on core i.
func (s *System) step(i uint64)          { s.cores[i].step() }
func (s *System) writebackDone(i uint64) { s.cores[i].writebackDone() }
func (s *System) readDone(i uint64)      { s.cores[i].next(0) }

// read services a load: L1, then L2, then a blocking memory fetch.
func (c *core) read(addr mem.Addr) {
	cfg := c.sys.Cfg
	res := c.l1.Access(addr, false)
	c.handleL1Victim(res)
	if res.Hit {
		c.sys.St.Inc(stats.L1Hits, 1)
		c.next(cfg.L1.HitTime)
		return
	}
	c.sys.St.Inc(stats.L1Misses, 1)
	if c.l2Access(addr, false).Hit {
		c.sys.St.Inc(stats.L2Hits, 1)
		c.next(cfg.L1.HitTime + cfg.L2.HitTime)
		return
	}
	c.sys.St.Inc(stats.L2Misses, 1)
	c.sys.MC.Read(addr, c.sys.readDoneH, uint64(c.id))
}

// write services store i to addr: update the plaintext image and the
// hierarchy.
func (c *core) write(i int, addr mem.Addr, counterAtomic bool) {
	sys := c.sys
	addr = addr.LineAddr()
	sys.plain.WriteLine(addr, c.tr.Line(i))
	*sys.caLine.Ptr(addr) = counterAtomic

	res := c.l1.Access(addr, true)
	c.handleL1Victim(res)
	if res.Hit {
		sys.St.Inc(stats.L1Hits, 1)
		c.next(sys.Cfg.L1.HitTime)
		return
	}
	sys.St.Inc(stats.L1Misses, 1)
	l2res := c.l2Access(addr, false)
	if l2res.Hit {
		sys.St.Inc(stats.L2Hits, 1)
	} else {
		sys.St.Inc(stats.L2Misses, 1)
		// Write-allocate fill traffic; the store buffer hides its
		// latency from the core.
		sys.MC.Read(addr, sim.NoHandler, 0)
	}
	c.next(sys.Cfg.L1.HitTime + sys.Cfg.L2.HitTime)
}

// clwb pushes a dirty line to the memory controller without invalidating
// it (Intel clwb). Clean or absent lines are no-ops.
func (c *core) clwb(addr mem.Addr) {
	sys := c.sys
	line := addr.LineAddr()
	d1 := c.l1.Clean(line)
	d2 := sys.l2.Clean(line)
	if d1 || d2 {
		c.outstanding++
		sys.St.Inc(stats.Clwbs, 1)
		sys.MC.Write(line, sys.plain.ReadLine(line), sys.counterAtomic(line), sys.writebackH, uint64(c.id))
	}
	c.next(sys.Cfg.L1.HitTime)
}

// writebackDone is the acceptance callback for tracked writebacks.
func (c *core) writebackDone() {
	c.outstanding--
	if c.fenceWait && c.outstanding == 0 {
		c.fenceWait = false
		c.sys.St.AddTime(stats.FenceWait, c.sys.Eng.Now()-c.fenceStart)
		c.sys.St.Observe(stats.FenceWaitEach, c.sys.Eng.Now()-c.fenceStart)
		c.fenceRetired(c.sys.Eng.Now())
		c.next(c.sys.Cfg.CPUCycle)
	}
}

// fenceRetired advances the per-transaction stage spans when a persist
// barrier completes: the open stage closes and the next one opens at the
// same instant. Fences outside a transaction (stage == 0), or beyond the
// four the commit protocol issues, leave the timeline untouched.
func (c *core) fenceRetired(at sim.Time) {
	if c.stage == 0 {
		return
	}
	if c.stage <= len(txStageNames) {
		c.sys.pb.SpanEnd(c.id, at)
	}
	c.stage++
	if c.stage <= len(txStageNames) {
		c.sys.pb.SpanBegin(c.id, txStageNames[c.stage-1], at)
	}
}

// handleL1Victim spills a dirty L1 victim into the L2.
func (c *core) handleL1Victim(res cache.AccessResult) {
	if res.VictimValid && res.VictimDirty {
		c.l2Access(res.Victim, true)
	}
}

// l2Access touches the shared L2 and writes back any dirty L2 victim to
// memory as a natural (non-tracked) eviction.
func (c *core) l2Access(addr mem.Addr, write bool) cache.AccessResult {
	sys := c.sys
	res := sys.l2.Access(addr, write)
	if res.VictimValid && res.VictimDirty {
		v := res.Victim
		sys.MC.Write(v, sys.plain.ReadLine(v), sys.counterAtomic(v), sim.NoHandler, 0)
	}
	return res
}
