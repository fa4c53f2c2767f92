// Package memctrl implements the encrypted NVMM memory controller of the
// paper's Figure 11: an encryption engine with a counter cache, a data
// write queue, a counter write queue, and the counter-atomicity protocol
// that guarantees a data line and its encryption counter persist together.
//
// The evaluated designs differ only in policy, and the controller holds
// none of it: every design decision — counter placement, atomicity,
// acceptance order, writeback behavior — is a column of the
// machine/engines.Engine row it is built with. The controller owns the
// mechanism (queues, counter cache, encryption pipeline, issue
// scheduling); the row answers the policy questions. Adding a design
// means adding an engine row, not editing this package.
//
// Counter-atomicity protocol: a CA write is accepted only when the data
// write queue and the counter write queue both have a free entry; both
// entries are created together with the ready bit set (the paper's steps
// ⑤–⑦ collapse to the acceptance instant). Entries in a queue are
// ADR-protected: on power failure every ready entry drains to NVM. Because
// a CA pair is accepted atomically, a crash can never persist one half.
package memctrl

import (
	"slices"

	"encnvm/internal/cache"
	"encnvm/internal/config"
	"encnvm/internal/ctrenc"
	"encnvm/internal/machine/engines"
	"encnvm/internal/mem"
	"encnvm/internal/nvm"
	"encnvm/internal/probe"
	"encnvm/internal/sim"
	"encnvm/internal/stats"
)

// forwardLatency approximates servicing a read from a matching write-queue
// entry instead of the NVM array.
const forwardLatency = 5 * sim.Nanosecond

// acceptWindow bounds how far the out-of-order acceptance scan looks past
// the oldest blocked request — a finite scheduler lookahead, which also
// keeps acceptance linear when the shutdown flush enqueues tens of
// thousands of writebacks at once.
const acceptWindow = 64

// counterLinger is how long a counter-line write may sit in the (ADR
// protected) counter write queue before it must issue to the device.
// Lingering is safe — queued entries survive power failure — and is where
// counter-write coalescing happens: eight data lines share a counter line
// and transactions rewrite the same log-slot counter lines, so a short
// linger absorbs most counter updates (Fig. 14's traffic reduction).
const counterLinger = 2 * sim.Microsecond

// entry is one in-flight write: accepted into a queue, possibly already
// issued to the device, removed at device completion. All queued entries
// are ready (ADR-drainable); unready requests wait in the accept FIFO
// outside the queues. Entries live in the controller's entries slab and
// are named by index, which is what their events carry. The fields the
// queue scans read come first, in one cache line, ahead of the data.
type entry struct {
	addr     mem.Addr
	tag      uint64   // encryption counter (ground truth for the harness)
	deadline sim.Time // counter entries: must issue by this time
	nbytes   int32
	next     int32  // free-list link while the entry is unused
	sum      uint16 // plaintext checksum (the persisted ECC model)
	ca       bool   // counter-atomic data write (never coalesced)
	eligible bool   // encryption pipeline done; may issue
	issued   bool   // device write dispatched
	isData   bool   // queued in dataQ (else counterQ)
	// syncCtr marks a co-located entry whose 72B access carries its
	// counter (tag): completion also syncs the image's counter slot.
	syncCtr bool
	data    mem.Line
}

// writeReq is a write awaiting acceptance. As in entry, the fields the
// acceptance scan reads come ahead of the line.
type writeReq struct {
	addr    mem.Addr
	arrival sim.Time // for queueing-delay stats
	// accepted is posted with acceptArg at acceptance (persistence now
	// guaranteed); NoHandler posts nothing.
	acceptArg uint64
	accepted  sim.Handler
	ca        bool
	isCtr     bool // counter-line write (ccwb or eviction)
	ccwb      bool // isCtr via counter_cache_writeback: dirty-checked at its turn
	plain     mem.Line
}

// readReq is one read between its arrival and its completion: waiting
// for a read-queue slot, or in flight with remaining parts outstanding.
type readReq struct {
	addr mem.Addr
	arg  uint64
	done sim.Handler // called with arg when the read completes
	// remaining counts the parts still outstanding once the read is in
	// flight: device fetches and the decryption delay. Zero while the
	// read waits for a read-queue slot.
	remaining int32
	next      int32 // wait-queue or free-list link
}

// Controller is the memory controller for one simulated system.
type Controller struct {
	eng *sim.Engine
	cfg *config.Config
	// meta is the design's engine row, held by value: the per-write
	// paths read its columns directly.
	meta engines.Engine
	dev  *nvm.Device
	st   *stats.Stats

	layout mem.Layout
	enc    *ctrenc.Engine
	ctrs   ctrenc.Counters
	ctrC   *cache.Cache // nil unless the design uses a counter cache

	// dataQ and counterQ hold indices into entries, in queue order.
	dataQ     []int32
	counterQ  []int32
	pending   []*writeReq // FIFO accept queue (backpressure)
	accepting bool        // reentrancy guard for tryAccept
	// pendingCA counts the CA writes in pending: without one, a pass
	// that fails on a full data queue has no ready-bit waits to count.
	pendingCA int
	// blocked holds the lines of the data and CA writes that failed in
	// the current acceptance pass; the pass keeps its length.
	blocked [acceptWindow]mem.Addr
	// spare is pending's second buffer: an acceptance pass compacts the
	// survivors in place while requests arriving during the pass collect
	// here, and the two buffers swap roles each pass. Both grow to the
	// FIFO's high-water mark once and are reused from then on.
	spare []*writeReq

	// entries is the slab every queue entry lives in, pre-sized to cover
	// both queues; retire returns entries to the free list headed by
	// freeEntry (-1 when empty) and the accept path reuses them.
	entries   []entry
	freeEntry int32

	// reqPool recycles accept-FIFO requests out of a slab. They stay
	// pointers, not indices, because the acceptance scan compacts and
	// swaps the FIFO by pointer. The FIFO is bounded in steady state by
	// the replay cores' backpressure threshold; the slab covers that,
	// and overflow (shutdown-flush storms) falls back to the heap in
	// getReq.
	reqPool []*writeReq

	// persistSink, when non-nil, receives the instant of every
	// ADR-visible state change: a queue entry accepted, refreshed or
	// completed, a device-image write landing, or the dirty counter-
	// cache set changing. Between two crash deadlines with no sink
	// instant in the half-open interval between them, the post-crash
	// NVM state is identical — the dynamic refinement the crash
	// campaign layers over the static class partition. Nil by default:
	// one nil check on the hot paths.
	persistSink func(sim.Time)

	// pb, when non-nil, receives acceptance spans, encryption-pipeline
	// occupancy, and queue-depth samples. Nil by default (one nil check
	// on the hot paths).
	pb *probe.Probe

	// The scheduler dispatches a bounded number of device writes per
	// queue; entries waiting behind the window remain coalescible, which
	// is where SCA's counter-write coalescing (§6.3.3) happens. Data
	// entries issue in queue order, so the issued ones are exactly
	// dataQ[:dataIssued] (see tryIssue).
	dataIssued    int
	counterIssued int

	// Read-queue capacity (Table 2: 32 entries): reads beyond it wait
	// their turn in arrival order, linked from waitHead to waitTail
	// through reads (-1 when none wait). reads is the slab of read
	// records, with its free list headed by freeRead.
	readsInFlight int
	reads         []readReq
	freeRead      int32
	waitHead      int32
	waitTail      int32

	// evH is the controller's one registered handler, event: each event
	// it posts carries its kind and an entry or read index in the
	// argument (evArg).
	evH sim.Handler

	flushLeft int // counter flushes not yet accepted
	flushDone sim.Handler
	flushArg  uint64

	// stopLossLag counts, per data line, writes since the line's counter
	// last headed to NVM; used only when the engine enforces a stop-loss
	// rule.
	stopLossLag mem.Table[int32]
	// stopLossLimit is meta.StopLossLimit resolved against the build
	// config; negative disables the stop-loss rule.
	stopLossLimit int

	// treeExtraBytes widens every fresh counter-queue entry by the
	// engine's integrity-tree path (ancestor tree nodes + MAC line, BMT):
	// the path travels with the counter write, so coalescing a counter
	// write coalesces its path too — Freij-style streamlined tree
	// updates. Zero for engines without a persisted tree.
	treeExtraBytes int
}

// New builds a controller over the given device, with the given metadata
// engine supplying every design decision.
func New(eng *sim.Engine, cfg *config.Config, meta engines.Engine, dev *nvm.Device, st *stats.Stats) *Controller {
	mc := &Controller{
		eng:            eng,
		cfg:            cfg,
		meta:           meta,
		dev:            dev,
		st:             st,
		layout:         dev.Layout(),
		stopLossLimit:  meta.StopLossLimit(cfg),
		treeExtraBytes: cfg.LineBytes * meta.TreePathWrites(cfg),
	}
	if meta.Encrypted {
		mc.enc = ctrenc.NewDefault()
	}
	if meta.UsesCounterCache {
		mc.ctrC = cache.New(cfg.CounterCache)
	}
	// Pre-size the queues to their configured capacities, both out of
	// one backing array, and the entry slab to cover them, so the
	// steady-state accept/retire cycle never allocates.
	dq, cq := cfg.DataWriteQueue, cfg.CounterWriteQueue
	qs := make([]int32, 0, dq+cq)
	mc.dataQ, mc.counterQ = qs[:0:dq], qs[dq:dq:dq+cq]
	mc.entries = make([]entry, 0, dq+cq)
	// One read record per read-queue slot; waiting reads grow the slab.
	mc.reads = make([]readReq, 0, cfg.ReadQueueEntries)
	mc.freeEntry, mc.freeRead, mc.waitHead, mc.waitTail = -1, -1, -1, -1
	dev.ReserveWrites(mc.dataIssueWidth() + mc.counterIssueWidth())
	// The accept FIFO is bounded in steady state by the cores'
	// writeback backpressure (replay stalls a core while more than 128
	// writes wait, 2× the acceptance window); size the request slab past
	// that so only flush storms hit the heap.
	reqSlab := make([]writeReq, 3*acceptWindow)
	mc.reqPool = make([]*writeReq, len(reqSlab))
	for i := range reqSlab {
		mc.reqPool[i] = &reqSlab[i]
	}
	mc.evH = eng.Register(mc.event)
	return mc
}

// Controller event kinds. An event's argument holds its kind above the
// 32-bit index of the entry or read record it concerns. One handler with
// a kind, not one registered handler per kind, keeps a machine build from
// allocating a method value per kind.
const (
	evEligible      = iota // entry's encryption finished: it may issue
	evDeadline             // a counter entry's linger deadline passed
	evWritten              // entry's device write landed
	evReadPart             // one part of a read finished
	evReadFetched          // a fetch that decryption must follow finished
	evRetryRead            // a waiting read's turn
	evFlushAccepted        // one FlushCounters write was accepted
)

// evArg packs event kind k and index i into an event argument.
func evArg(k uint64, i int32) uint64 { return k<<32 | uint64(uint32(i)) }

// event is the controller's registered handler.
func (mc *Controller) event(arg uint64) {
	i := int32(uint32(arg))
	switch arg >> 32 {
	case evEligible:
		mc.eligible(i)
	case evDeadline:
		// The deadline names no entry: by now the entry may have
		// issued, retired and been reused.
		mc.tryIssue()
	case evWritten:
		mc.written(i)
	case evReadPart:
		mc.readPart(i)
	case evReadFetched:
		mc.post(mc.cfg.CryptoLatency, evReadPart, i)
	case evRetryRead:
		mc.retryRead(i)
	case evFlushAccepted:
		mc.flushAccepted()
	}
}

// post posts event kind k for index i after delay.
func (mc *Controller) post(delay sim.Time, k uint64, i int32) {
	mc.eng.Post(delay, mc.evH, evArg(k, i))
}

// getEntry takes a zeroed entry from the free list, or else appends one
// to the slab, and returns its index. The slab's capacity covers both
// queues, so appending reallocates only when stop-loss counter writes
// push the counter queue past its nominal capacity. Reallocation moves
// the slab: callers hold indices, never *entry, across getEntry.
func (mc *Controller) getEntry() int32 {
	i := mc.freeEntry
	if i < 0 {
		mc.entries = append(mc.entries, entry{})
		return int32(len(mc.entries) - 1)
	}
	mc.freeEntry = mc.entries[i].next
	mc.entries[i].next = 0
	return i
}

// putEntry zeroes a retired entry and returns it to the free list.
func (mc *Controller) putEntry(i int32) {
	mc.entries[i] = entry{next: mc.freeEntry}
	mc.freeEntry = i
}

// SetPersistEpochSink attaches (or, with nil, detaches) the persist-
// epoch sink. Call before the run starts; the sink must not re-enter
// the controller.
func (mc *Controller) SetPersistEpochSink(fn func(sim.Time)) { mc.persistSink = fn }

// persistEpoch reports an ADR-visible state change at the current
// instant.
func (mc *Controller) persistEpoch() {
	if mc.persistSink != nil {
		mc.persistSink(mc.eng.Now())
	}
}

// getReq takes a zeroed request from the pool, falling back to the heap
// when the accept FIFO outgrows the slab (shutdown-flush storms).
func (mc *Controller) getReq() *writeReq {
	if n := len(mc.reqPool); n > 0 {
		r := mc.reqPool[n-1]
		mc.reqPool[n-1] = nil
		mc.reqPool = mc.reqPool[:n-1]
		return r
	}
	return new(writeReq)
}

// putReq zeroes a consumed request and returns it to the pool. Requests
// beyond the slab's capacity are dropped for the GC. Safe to call the
// moment acceptance has copied what it needs: the accepted callback is
// scheduled by value before release.
func (mc *Controller) putReq(r *writeReq) {
	*r = writeReq{}
	if n := len(mc.reqPool); n < cap(mc.reqPool) {
		mc.reqPool = mc.reqPool[:n+1]
		mc.reqPool[n] = r
	}
}

// pushData appends entry i to the data queue. Acceptance checks capacity
// first, so this never grows the pre-sized backing array.
func (mc *Controller) pushData(i int32) {
	mc.entries[i].isData = true
	n := len(mc.dataQ)
	mc.dataQ = mc.dataQ[:n+1]
	mc.dataQ[n] = i
}

// pushCounter appends entry i to the counter queue, growing only on
// stop-loss overflow past the configured capacity.
func (mc *Controller) pushCounter(i int32) {
	n := len(mc.counterQ)
	if n < cap(mc.counterQ) {
		mc.counterQ = mc.counterQ[:n+1]
		mc.counterQ[n] = i
		return
	}
	mc.counterQ = append(mc.counterQ, i)
}

// Counters exposes the authoritative per-line counter state (the values
// most recently used for encryption) for the crash harness and recovery.
func (mc *Controller) Counters() *ctrenc.Counters { return &mc.ctrs }

// Encryption returns the functional encryption engine, or nil for the
// NoEncryption design.
func (mc *Controller) Encryption() *ctrenc.Engine { return mc.enc }

// Layout returns the data/counter address layout.
func (mc *Controller) Layout() mem.Layout { return mc.layout }

// SetProbe attaches the observability probe (nil detaches it).
func (mc *Controller) SetProbe(p *probe.Probe) { mc.pb = p }

// probeQueues samples the queue depths into the timeline's counter track.
func (mc *Controller) probeQueues() {
	if mc.pb == nil {
		return
	}
	mc.pb.QueueDepth(mc.eng.Now(), len(mc.dataQ), len(mc.counterQ), len(mc.pending))
}

// DirtyCounterCount reports the number of dirty counter-cache lines (0
// when the design has no counter cache) — an observability gauge.
func (mc *Controller) DirtyCounterCount() int {
	if mc.ctrC == nil {
		return 0
	}
	return mc.ctrC.DirtyCount()
}

// EncryptedWrites reports how many line encryptions the controller has
// performed (the global counter-advance count).
func (mc *Controller) EncryptedWrites() uint64 { return mc.ctrs.Global() }

// ---------------------------------------------------------------------------
// Read path

// Read fetches the data line at addr and calls (h, arg) when decrypted
// data would be available to fill the caches; NoHandler calls nothing.
// The actual plaintext flows through the replay engine's image; the
// controller provides timing and traffic. Reads beyond the read queue's
// capacity wait in arrival order.
func (mc *Controller) Read(addr mem.Addr, h sim.Handler, arg uint64) {
	addr = addr.LineAddr()

	// Forward from an in-flight or waiting write if possible.
	if mc.findWrite(addr) {
		mc.st.Inc(stats.ReadForwards, 1)
		mc.eng.Post(forwardLatency, h, arg)
		return
	}

	i := mc.getRead()
	r := &mc.reads[i]
	r.addr, r.done, r.arg = addr, h, arg
	if mc.readsInFlight >= mc.cfg.ReadQueueEntries {
		mc.st.Inc(stats.ReadQueueFull, 1)
		if mc.waitTail >= 0 {
			mc.reads[mc.waitTail].next = i
		} else {
			mc.waitHead = i
		}
		mc.waitTail = i
		return
	}
	mc.readsInFlight++

	switch {
	case !mc.meta.Encrypted:
		mc.fetch(i, 1, addr, mc.cfg.AccessBytes(), evReadPart)

	case mc.meta.CoLocatesCounters && !mc.meta.UsesCounterCache:
		// No counter cache: the counter arrives with the data, so
		// decryption strictly follows the read (Fig. 6a).
		mc.fetch(i, 1, addr, mc.cfg.AccessBytes(), evReadFetched)

	case mc.meta.CoLocatesCounters:
		cl := mc.layout.CounterLine(addr)
		hit := mc.ctrC.Access(cl, false).Hit
		mc.ctrC.Clean(cl) // co-located counters are never dirty on-chip
		if hit {
			mc.st.Inc(stats.CounterCacheHits, 1)
			// OTP generation overlaps the data fetch (Fig. 6b).
			mc.fetchAndDecrypt(i, addr)
		} else {
			mc.st.Inc(stats.CounterCacheMiss, 1)
			// The 72B access brings the counter; decrypt after.
			mc.fetch(i, 1, addr, mc.cfg.AccessBytes(), evReadFetched)
		}

	default: // separate counter region + counter cache (Ideal, FCA, SCA, Osiris)
		cl := mc.layout.CounterLine(addr)
		res := mc.ctrC.Access(cl, false)
		mc.evictCounterVictim(res)
		if res.Hit {
			mc.st.Inc(stats.CounterCacheHits, 1)
			mc.fetchAndDecrypt(i, addr)
		} else {
			mc.st.Inc(stats.CounterCacheMiss, 1)
			// The read stalls until the counter line arrives from
			// NVM, then OTP generation, overlapped with the data
			// fetch (§5.2.1 "Counter Cache Miss").
			mc.fetch(i, 2, addr, 64, evReadPart)
			mc.dev.Read(cl, 64, mc.evH, evArg(evReadFetched, i))
		}
	}
}

// fetch sets read i's outstanding part count and starts its data fetch,
// whose completion posts event kind k: evReadPart, or evReadFetched when
// decryption must follow the fetch.
func (mc *Controller) fetch(i, parts int32, addr mem.Addr, nbytes int, k uint64) {
	mc.reads[i].remaining = parts
	mc.dev.Read(addr, nbytes, mc.evH, evArg(k, i))
}

// fetchAndDecrypt completes read i when both the data fetch for addr and
// the on-chip OTP generation have elapsed.
func (mc *Controller) fetchAndDecrypt(i int32, addr mem.Addr) {
	mc.fetch(i, 2, addr, mc.cfg.AccessBytes(), evReadPart)
	mc.post(mc.cfg.CryptoLatency, evReadPart, i)
}

// readPart completes one part of read i; the last one completes the
// read: its read-queue slot passes to the oldest waiting read, whose
// retry is posted, and the read's own handler runs.
func (mc *Controller) readPart(i int32) {
	r := &mc.reads[i]
	r.remaining--
	if r.remaining > 0 {
		return
	}
	h, arg := r.done, r.arg
	mc.putRead(i)
	mc.readsInFlight--
	if w := mc.waitHead; w >= 0 {
		mc.waitHead = mc.reads[w].next
		if mc.waitHead < 0 {
			mc.waitTail = -1
		}
		mc.post(0, evRetryRead, w)
	}
	mc.eng.Call(h, arg)
}

// retryRead gives waiting read i its turn: it is read again from the
// start, so it may forward from a write queued meanwhile, or wait again
// behind a read that took the slot first.
func (mc *Controller) retryRead(i int32) {
	r := mc.reads[i]
	mc.putRead(i)
	mc.Read(r.addr, r.done, r.arg)
}

// getRead takes a zeroed read record from the free list, or else appends
// one to the slab, and returns its index.
func (mc *Controller) getRead() int32 {
	i := mc.freeRead
	if i < 0 {
		mc.reads = append(mc.reads, readReq{next: -1})
		return int32(len(mc.reads) - 1)
	}
	mc.freeRead = mc.reads[i].next
	mc.reads[i].next = -1
	return i
}

// putRead returns read record i to the free list.
func (mc *Controller) putRead(i int32) {
	mc.reads[i] = readReq{next: mc.freeRead}
	mc.freeRead = i
}

func (mc *Controller) findWrite(addr mem.Addr) bool {
	for _, i := range mc.dataQ {
		if mc.entries[i].addr == addr {
			return true
		}
	}
	for _, r := range mc.pending {
		if !r.isCtr && r.addr == addr {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Write path

// Write writes back the plaintext line at addr. ca marks a store to a
// CounterAtomic variable; the engine decides the write's final atomicity
// (FCA forces it for every write, co-located and checksum-recovery
// engines never enforce it). (accepted, arg) is posted when the write's
// persistence is guaranteed (entered the ADR domain, with its counter
// where the design requires one); NoHandler posts nothing.
func (mc *Controller) Write(addr mem.Addr, plain mem.Line, ca bool, accepted sim.Handler, arg uint64) {
	addr = addr.LineAddr()
	ca = mc.meta.WriteIsCounterAtomic(ca)
	if ca {
		mc.st.Inc(stats.CAWrites, 1)
		mc.pendingCA++
	} else {
		mc.st.Inc(stats.NonCAWrites, 1)
	}
	req := mc.getReq()
	req.addr, req.plain, req.ca, req.accepted, req.acceptArg, req.arrival =
		addr, plain, ca, accepted, arg, mc.eng.Now()
	mc.pending = append(mc.pending, req)
	mc.tryAccept()
}

// CounterWriteback implements counter_cache_writeback(addr) (§4.3): if the
// counter line covering addr is dirty in the counter cache, write it back
// (without invalidating). (accepted, arg) is posted when the counter write
// is in the ADR domain — at once if there is nothing to write.
func (mc *Controller) CounterWriteback(addr mem.Addr, accepted sim.Handler, arg uint64) {
	mc.st.Inc(stats.CCWBs, 1)
	if !mc.meta.CounterWritebackEmits {
		// Co-located designs have no separate counters to write, and
		// checksum-recovery engines make the primitive unnecessary:
		// recovery regenerates counters from the persisted ECC within
		// the stop-loss window.
		mc.eng.Post(0, accepted, arg)
		return
	}
	// The dirty check must happen at the request's turn in acceptance
	// order, not now: the clwbs the program issued just before this
	// ccwb may still await acceptance, and only acceptance bumps their
	// counters. Checking early would silently skip exactly the counters
	// the barrier is meant to persist.
	cl := mc.layout.CounterLine(addr)
	req := mc.getReq()
	req.addr, req.isCtr, req.ccwb, req.arrival = cl, true, true, mc.eng.Now()
	if !mc.meta.CounterWritebackBlocks {
		// The Ideal design pays the counter write traffic but never
		// the ordering: the barrier does not wait for the counter to
		// enter the ADR domain — which is exactly why it is not crash
		// consistent.
		mc.eng.Post(0, accepted, arg)
	} else {
		req.accepted, req.acceptArg = accepted, arg
	}
	mc.pending = append(mc.pending, req)
	mc.tryAccept()
}

// enqueueCounterWrite queues a standalone (always-ready) write of the
// counter line cl with its current packed values; (accepted, arg) is
// posted at acceptance.
func (mc *Controller) enqueueCounterWrite(cl mem.Addr, accepted sim.Handler, arg uint64) {
	req := mc.getReq()
	req.addr, req.isCtr, req.accepted, req.acceptArg, req.arrival = cl, true, accepted, arg, mc.eng.Now()
	mc.pending = append(mc.pending, req)
	mc.tryAccept()
}

// packCounterLine snapshots the current values of the eight counters
// stored in counter line cl.
func (mc *Controller) packCounterLine(cl mem.Addr) mem.Line {
	var vals [mem.CountersPerLine]uint64
	for i, da := range mc.layout.DataLinesOf(cl) {
		vals[i] = mc.ctrs.Current(da)
	}
	return ctrenc.PackCounterLine(vals)
}

// tryAccept admits pending writes while queue capacity allows. A
// counter-atomic write needs space in both queues and is admitted as an
// atomic pair; a regular write needs only the data queue.
//
// Acceptance order is the design's key lever:
//
//   - FCA accepts strictly in FIFO order, so a CA write stuck waiting for
//     counter-queue space blocks every younger write behind it — the
//     serialization of Fig. 7a.
//   - All other designs accept out of order, with exactly the ordering
//     crash consistency requires: writes to the same data line stay in
//     program order, and counter writes (ccwb, evictions) never bypass an
//     earlier unaccepted data write — a counter writeback must cover the
//     counters of every write the program issued before it. Plain data
//     writes may bypass stalled CA and counter writes, which is what lets
//     SCA scale with core count (Fig. 13).
//
// Out of order, a request that fails while the data queue is full ends
// the pass: the queue cannot drain inside acceptance, and the failure
// blocks every younger counter and CA write, so the rest of the window
// fails too. Its write-queue stalls and ready-bit waits are counted as if
// it had been scanned (DESIGN.md, "Counter-atomicity protocol").
func (mc *Controller) tryAccept() {
	if mc.accepting {
		// Acceptance can enqueue new writes (counter-cache eviction
		// writebacks); they land at the tail of pending and are picked
		// up by the loop already running below.
		return
	}
	mc.accepting = true

	fifo := mc.meta.FIFOAcceptance
	// Stalls are tallied locally and flushed to the stats once per call.
	stalls := uint64(0)
	for {
		progress := false
		dataUnaccepted := false // an earlier data/CA write is still pending
		ctrBlocked := false     // an earlier counter write is still pending
		nBlocked := 0           // lines in mc.blocked this pass

		// Detach the list: acceptance can enqueue fresh requests
		// (counter-cache eviction writebacks), which land in the spare
		// buffer and are merged behind the survivors. The survivors
		// are compacted in place into pending[:n].
		pending := mc.pending
		mc.pending = mc.spare[:0]
		n := 0

		for i := 0; i < len(pending); i++ {
			if n >= acceptWindow {
				// Lookahead exhausted; everything younger waits.
				n += copy(pending[n:], pending[i:])
				break
			}
			req := pending[i]
			var ok bool
			switch {
			case req.isCtr:
				if ctrBlocked || dataUnaccepted {
					// An older request failed this pass, so this one
					// cannot get its turn: it fails without a look at
					// the counter cache or the counter queue.
					break
				}
				if req.ccwb && (mc.ctrC == nil || !mc.ctrC.IsDirty(req.addr)) {
					// Nothing to write after all; the request
					// completes without consuming a queue slot.
					mc.postAccepted(req)
					mc.putReq(req)
					progress = true
					continue
				}
				ok = len(mc.counterQ) < mc.cfg.CounterWriteQueue || mc.hasUnissuedCounter(req.addr)
				ctrBlocked = !ok
			case req.ca:
				haveData := len(mc.dataQ) < mc.cfg.DataWriteQueue
				// Outside FCA, the counter half coalesces into an
				// unissued entry for the same counter line, so a full
				// counter queue only blocks when no such entry exists.
				haveCtr := len(mc.counterQ) < mc.cfg.CounterWriteQueue ||
					(!fifo && mc.hasUnissuedCounter(mc.layout.CounterLine(req.addr)))
				ok = !dataUnaccepted && !ctrBlocked &&
					!lineBlocked(mc.blocked[:nBlocked], req.addr) &&
					haveData && haveCtr
				if !ok {
					if haveData != haveCtr {
						mc.st.Inc(stats.ReadyBitWaits, 1)
					}
					dataUnaccepted = true
					nBlocked = blockLine(&mc.blocked, nBlocked, req.addr)
				}
			default:
				ok = !lineBlocked(mc.blocked[:nBlocked], req.addr) &&
					len(mc.dataQ) < mc.cfg.DataWriteQueue
				if !ok {
					dataUnaccepted = true
					nBlocked = blockLine(&mc.blocked, nBlocked, req.addr)
				}
			}
			if ok {
				if req.isCtr {
					mc.acceptCounter(req)
				} else {
					mc.acceptData(req)
				}
				mc.putReq(req)
				progress = true
				continue
			}
			stalls++
			pending[n] = req
			n++
			if !fifo {
				if len(mc.dataQ) < mc.cfg.DataWriteQueue {
					continue
				}
				// Full data queue: every younger request in the
				// window fails too, so count what scanning them
				// would and stop.
				rest := pending[i+1:]
				rest = rest[:min(len(rest), acceptWindow-n)]
				stalls += uint64(len(rest))
				if mc.pendingCA > 0 {
					if w := mc.readyBitWaitsOnFullQueue(rest); w > 0 {
						mc.st.Inc(stats.ReadyBitWaits, w)
					}
				}
			}
			// Strict FIFO, or nothing more can be accepted this
			// pass: everything younger waits, in order.
			n += copy(pending[n:], pending[i+1:])
			break
		}
		// Swap buffers; the clears drop stale pointers so pool-overflow
		// requests can be collected.
		arrivals := mc.pending
		clear(pending[n:])
		mc.pending = append(pending[:n], arrivals...)
		clear(arrivals)
		mc.spare = arrivals[:0]
		if !progress || len(mc.pending) == 0 {
			break
		}
	}
	if stalls > 0 {
		mc.st.Inc(stats.WriteQueueStalls, stalls)
	}
	mc.probeQueues()
	mc.accepting = false
}

// readyBitWaitsOnFullQueue counts the ready-bit waits that failing the
// requests in rest on a full data queue records: one per CA write whose
// counter half has room, exactly as the scan's CA case would. Only
// out-of-order acceptance gets here, so coalescing into an unissued
// counter entry counts as room.
func (mc *Controller) readyBitWaitsOnFullQueue(rest []*writeReq) uint64 {
	ctrRoom := len(mc.counterQ) < mc.cfg.CounterWriteQueue
	var w uint64
	for _, r := range rest {
		if !r.isCtr && r.ca && (ctrRoom || mc.hasUnissuedCounter(mc.layout.CounterLine(r.addr))) {
			w++
		}
	}
	return w
}

// lineBlocked reports whether a is in the blocked-line set. A plain
// function over the controller's array, not a closure: tryAccept runs
// once per accepted write and must not allocate.
func lineBlocked(blocked []mem.Addr, a mem.Addr) bool {
	for _, b := range blocked {
		if b == a {
			return true
		}
	}
	return false
}

// blockLine adds a to the blocked-line set if there is room, returning
// the new set size.
func blockLine(set *[acceptWindow]mem.Addr, n int, a mem.Addr) int {
	if n < len(set) && !lineBlocked(set[:n], a) {
		set[n] = a
		n++
	}
	return n
}

// acceptData admits one data write: encrypt, update the counter state,
// queue the device write, and (for CA writes) pair it with the counter
// line write.
func (mc *Controller) acceptData(req *writeReq) {
	now := mc.eng.Now()
	mc.persistEpoch() // queue contents and counter-cache state change here
	mc.st.Observe(stats.AcceptDelay, now-req.arrival)

	var cipher mem.Line
	var cryptoDelay sim.Time
	var ctr uint64
	sum := ctrenc.Checksum(req.plain, req.addr)
	if mc.meta.Encrypted {
		ctr = mc.ctrs.Next(req.addr)
		cipher = mc.enc.Encrypt(req.plain, req.addr, ctr)
		cryptoDelay = mc.cfg.CryptoLatency
		mc.touchCounterCacheForWrite(req.addr)
		mc.stopLoss(req.addr, cryptoDelay)
		if mc.meta.MetadataWriteThrough {
			// SecPM: the combined counter+MAC line rides along with every
			// data write. Queueing it here puts metadata into the ADR
			// domain at the same accept instant as the data (crash
			// consistent by construction); back-to-back writes covered by
			// one counter line coalesce in queueCounterEntry, which is
			// the scheme's counter write coalescing.
			cl := mc.layout.CounterLine(req.addr)
			mc.queueCounterEntry(cl, cryptoDelay)
			if mc.ctrC != nil {
				mc.ctrC.Clean(cl)
			}
		}
	} else {
		cipher = req.plain
	}
	if mc.pb != nil {
		if req.ca {
			mc.pb.CAWrite(uint64(req.addr), req.arrival, now)
		}
		if cryptoDelay > 0 {
			mc.pb.Encrypt(uint64(req.addr), now, now+cryptoDelay)
		}
	}

	// A non-CA write to a line already queued but not dispatched
	// overwrites that entry instead of occupying another slot. Only the
	// entries past the issued prefix are undispatched.
	if !req.ca {
		for _, i := range mc.dataQ[mc.dataIssued:] {
			old := &mc.entries[i]
			if old.addr == req.addr && !old.ca {
				old.data, old.tag, old.sum = cipher, ctr, sum
				if mc.meta.CoLocatesCounters {
					// The refreshed 72B access carries the new counter.
					old.syncCtr = true
				}
				mc.st.Inc(stats.CoalescedWrites, 1)
				mc.postAccepted(req)
				return
			}
		}
	}

	i := mc.getEntry()
	e := &mc.entries[i]
	e.addr, e.data, e.nbytes, e.tag, e.sum, e.ca = req.addr, cipher, int32(mc.cfg.AccessBytes()), ctr, sum, req.ca
	if mc.meta.CoLocatesCounters {
		// The 72B access carries the counter with the data; reflect
		// that in the functional image at the same completion instant
		// so the pair is atomic by construction.
		e.syncCtr = true
	}
	mc.pushData(i)
	mc.makeEligible(i, cryptoDelay)

	if req.ca {
		mc.pendingCA--
		cl := mc.layout.CounterLine(req.addr)
		if mc.meta.PairsEveryWrite {
			// FCA pairs every write with its own counter-line write —
			// the pair is indivisible, so the counter half never
			// coalesces. This is what doubles FCA's write traffic
			// (§4.1) and keeps its 16-entry counter queue under
			// pressure (Fig. 7a's serialization).
			ci := mc.getEntry()
			ce := &mc.entries[ci]
			ce.addr, ce.data, ce.nbytes, ce.ca = cl, mc.packCounterLine(cl), int32(64+mc.treeExtraBytes), true
			ce.deadline = mc.eng.Now() + cryptoDelay
			mc.pushCounter(ci)
			mc.makeEligible(ci, cryptoDelay)
		} else {
			mc.queueCounterEntry(cl, cryptoDelay)
		}
		// The queued snapshot makes the cached line clean again.
		if mc.ctrC != nil {
			mc.ctrC.Clean(cl)
		}
	}
	mc.postAccepted(req)
}

// postAccepted posts req's acceptance handler, if it has one.
func (mc *Controller) postAccepted(req *writeReq) {
	if req.accepted != sim.NoHandler {
		mc.eng.Post(0, req.accepted, req.acceptArg)
	}
}

// acceptCounter admits one standalone counter-line write (ccwb/eviction).
// If the same counter line is already queued and not yet dispatched, the
// queued entry is refreshed in place — the write-queue coalescing that
// gives SCA its counter-traffic reduction (Fig. 14).
func (mc *Controller) acceptCounter(req *writeReq) {
	mc.persistEpoch() // queue contents and counter-cache state change here
	mc.st.Observe(stats.CtrAcceptDelay, mc.eng.Now()-req.arrival)
	if req.ccwb {
		// The counter line leaves the dirty state now that a write of
		// its current contents is guaranteed.
		mc.ctrC.Clean(req.addr)
		mc.st.Inc(stats.CounterCacheWB, 1)
	}
	mc.queueCounterEntry(req.addr, 0)
	mc.postAccepted(req)
}

// hasUnissuedCounter reports whether an unissued (coalescible) counter
// entry for the counter line cl is queued.
func (mc *Controller) hasUnissuedCounter(cl mem.Addr) bool {
	for _, i := range mc.counterQ {
		if e := &mc.entries[i]; e.addr == cl && !e.issued {
			return true
		}
	}
	return false
}

// queueCounterEntry coalesces a counter-line write into an unissued queued
// entry for the same line, or appends a fresh entry with a linger deadline.
func (mc *Controller) queueCounterEntry(cl mem.Addr, cryptoDelay sim.Time) {
	for _, i := range mc.counterQ {
		if old := &mc.entries[i]; old.addr == cl && !old.issued {
			old.data = mc.packCounterLine(cl)
			mc.st.Inc(stats.CoalescedCounters, 1)
			return
		}
	}
	i := mc.getEntry()
	e := &mc.entries[i]
	e.addr, e.data, e.nbytes = cl, mc.packCounterLine(cl), int32(64+mc.treeExtraBytes)
	deadline := mc.eng.Now() + cryptoDelay + counterLinger
	e.deadline = deadline
	mc.pushCounter(i)
	mc.makeEligible(i, cryptoDelay)
	// The deadline event guarantees the entry eventually issues even if
	// nothing else stirs the scheduler.
	mc.eng.PostAt(deadline, mc.evH, evArg(evDeadline, 0))
}

// makeEligible marks entry i dispatchable once the encryption pipeline
// delay has elapsed, then runs the issue scheduler.
func (mc *Controller) makeEligible(i int32, delay sim.Time) {
	if delay == 0 {
		mc.eligible(i)
		return
	}
	mc.post(delay, evEligible, i)
}

// eligible marks entry i dispatchable and runs the issue scheduler.
func (mc *Controller) eligible(i int32) {
	mc.entries[i].eligible = true
	mc.tryIssue()
}

// Issue-width limits: how many device writes each queue keeps in flight.
// Entries behind the window stay in the queue, ADR-protected and still
// coalescible — modeling a scheduler that drains the queue at device speed
// rather than reserving the device the instant a write is accepted.
func (mc *Controller) dataIssueWidth() int    { return min(mc.cfg.Banks, mc.cfg.DataWriteQueue) }
func (mc *Controller) counterIssueWidth() int { return max(1, mc.cfg.CounterWriteQueue/2) }

// tryIssue dispatches eligible entries in queue order up to each queue's
// issue width.
//
// Every data entry waits the design's one CryptoLatency (none without
// encryption) between acceptance and eligibility, so data entries become
// eligible in queue order and the eligible ones form a prefix of dataQ.
// Issuing in queue order then keeps the issued ones a prefix too, and an
// entry leaves the queue only after it issued: the issued, uncompleted
// entries are exactly dataQ[:dataIssued], and the data scan starts there
// and stops at the first ineligible entry.
func (mc *Controller) tryIssue() {
	dq, dw := mc.dataQ, min(mc.dataIssueWidth(), len(mc.dataQ))
	for mc.dataIssued < dw && mc.entries[dq[mc.dataIssued]].eligible {
		mc.issue(dq[mc.dataIssued])
	}
	// Counter writes drain lazily: only under capacity pressure or past
	// their linger deadline, maximizing coalescing windows. Pressure
	// keeps a quarter of the queue free so counter-atomic pairs can
	// always be accepted promptly.
	pressure := len(mc.counterQ) >= mc.cfg.CounterWriteQueue-mc.cfg.CounterWriteQueue/4
	now := mc.eng.Now()
	cw := mc.counterIssueWidth()
	for _, i := range mc.counterQ {
		if mc.counterIssued >= cw {
			break
		}
		if e := &mc.entries[i]; e.eligible && !e.issued && (pressure || now >= e.deadline) {
			mc.issue(i)
		}
	}
}

// issue dispatches entry i's device write; written retires it at
// completion.
func (mc *Controller) issue(i int32) {
	e := &mc.entries[i]
	e.issued = true
	if e.isData {
		mc.dataIssued++
	} else {
		mc.counterIssued++
	}
	mc.dev.Write(e.addr, e.data, int(e.nbytes), e.tag, e.sum, mc.evH, evArg(evWritten, i))
}

// written completes entry i's device write and retires it.
func (mc *Controller) written(i int32) {
	mc.persistEpoch() // the write just landed in the device image
	e := &mc.entries[i]
	if e.isData {
		mc.dataIssued--
	} else {
		mc.counterIssued--
	}
	if e.syncCtr {
		mc.syncCoLocatedCounter(e.addr, e.tag, mc.eng.Now())
	}
	mc.retire(i)
}

// retire removes the completed entry i from its queue and returns it to
// the pool, then re-runs the issue scheduler and acceptance (capacity may
// have freed). Every entry retires the moment its write lands, so no
// other queued entry is complete.
func (mc *Controller) retire(i int32) {
	q := &mc.counterQ
	if mc.entries[i].isData {
		q = &mc.dataQ
	}
	k := slices.Index(*q, i)
	*q = slices.Delete(*q, k, k+1)
	mc.putEntry(i)
	mc.tryIssue()
	mc.tryAccept()
}

// stopLoss enforces the engine's stop-loss rule (Osiris): a data line's
// counter heads to NVM after at most StopLossLimit consecutive rewrites,
// bounding recovery's candidate-counter search. The counter write is a
// normal lazy queue entry (no ordering waits) and resets the lag of every
// line its counter line covers.
func (mc *Controller) stopLoss(addr mem.Addr, cryptoDelay sim.Time) {
	if mc.stopLossLimit < 0 {
		return
	}
	lag := mc.stopLossLag.Ptr(addr)
	*lag++
	if int(*lag) < mc.stopLossLimit {
		return
	}
	cl := mc.layout.CounterLine(addr)
	mc.queueCounterEntry(cl, cryptoDelay)
	if mc.ctrC != nil {
		mc.ctrC.Clean(cl)
	}
	// The eight lines share one table page.
	for _, da := range mc.layout.DataLinesOf(cl) {
		*mc.stopLossLag.Ptr(da) = 0
	}
	mc.st.Inc(stats.StopLossCounterWrites, 1)
}

// syncCoLocatedCounter updates the single 8B counter slot for a data line
// in the image's counter region at the instant the co-located 72B write
// completed, keeping the functional image decryptable.
func (mc *Controller) syncCoLocatedCounter(dataAddr mem.Addr, ctr uint64, at sim.Time) {
	cl := mc.layout.CounterLine(dataAddr)
	cur, _ := mc.dev.Image().Read(cl)
	vals := ctrenc.UnpackCounterLine(cur)
	vals[mc.layout.CounterSlot(dataAddr)] = ctr
	mc.dev.WriteAt(cl, ctrenc.PackCounterLine(vals), 0, 0, at)
}

// touchCounterCacheForWrite updates counter-cache state for a write to the
// data line addr: allocate/refresh the counter line, fetch it on a miss
// (background, non-blocking — a fresh counter is used regardless, §5.2.1),
// and write back any dirty victim.
func (mc *Controller) touchCounterCacheForWrite(addr mem.Addr) {
	if mc.ctrC == nil {
		return
	}
	cl := mc.layout.CounterLine(addr)
	res := mc.ctrC.Access(cl, true)
	mc.evictCounterVictim(res)
	if res.Hit {
		mc.st.Inc(stats.CounterCacheHits, 1)
		return
	}
	mc.st.Inc(stats.CounterCacheMiss, 1)
	if mc.meta.SeparateCounterWrites {
		// Background fill of the other seven counters in the line; its
		// completion posts an event that runs nothing.
		mc.dev.Read(cl, 64, sim.NoHandler, 0)
	}
	if mc.meta.CoLocatesCounters {
		mc.ctrC.Clean(cl) // co-located counters persist with their data
	}
}

// evictCounterVictim writes back a dirty counter line displaced from the
// counter cache. Losing it would strand stale counters in NVM for
// committed data — eviction writebacks are mandatory for correctness in
// the Ideal and SCA designs.
func (mc *Controller) evictCounterVictim(res cache.AccessResult) {
	if !res.VictimValid || !res.VictimDirty {
		return
	}
	mc.persistEpoch() // the dirty counter-cache set just shrank
	mc.st.Inc(stats.CounterCacheWB, 1)
	mc.enqueueCounterWrite(res.Victim, sim.NoHandler, 0)
}

// ---------------------------------------------------------------------------
// Crash and shutdown support

// PendingWork reports outstanding controller work: writes awaiting
// acceptance or device completion.
func (mc *Controller) PendingWork() int {
	return len(mc.pending) + len(mc.dataQ) + len(mc.counterQ)
}

// Backlog reports how many writes are still waiting for acceptance. The
// replay engine uses it as writeback-buffer backpressure: a core stalls
// when the controller is drowning, as real cache hierarchies do when
// their writeback buffers fill.
func (mc *Controller) Backlog() int { return len(mc.pending) }

// QueueOccupancy returns the current data/counter queue depths.
func (mc *Controller) QueueOccupancy() (data, counter int) {
	return len(mc.dataQ), len(mc.counterQ)
}

// DrainADR models the paper's extended ADR support at power failure: every
// entry resident in the (battery-backed) write queues drains to NVM at the
// crash instant. Entries awaiting acceptance are volatile and are lost.
// Because CA pairs are accepted atomically, no half-pair can be resident.
func (mc *Controller) DrainADR(at sim.Time) {
	for _, i := range mc.dataQ {
		e := &mc.entries[i]
		mc.dev.WriteAt(e.addr, e.data, e.tag, e.sum, at)
		if e.syncCtr {
			// Co-located entries carry their counter in the same
			// 72B access; the drain persists both halves.
			mc.syncCoLocatedCounter(e.addr, e.tag, at)
		}
	}
	for _, i := range mc.counterQ {
		e := &mc.entries[i]
		mc.dev.WriteAt(e.addr, e.data, 0, 0, at)
	}
}

// DirtyCounterLines returns the counter-cache lines whose latest values
// exist only on-chip. On a crash these are lost — the root cause of the
// paper's inconsistency (Fig. 3/4) in designs without counter-atomicity.
func (mc *Controller) DirtyCounterLines() []mem.Addr {
	if mc.ctrC == nil {
		return nil
	}
	return mc.ctrC.DirtyLines()
}

// FlushCounters writes back every dirty counter line (graceful shutdown),
// making the NVM image fully self-consistent. (accepted, arg) is called
// once all flushes are accepted — posted at once when there is nothing to
// flush. One flush may be in flight at a time.
func (mc *Controller) FlushCounters(accepted sim.Handler, arg uint64) {
	if mc.flushLeft > 0 {
		panic("memctrl: FlushCounters while a flush is in flight")
	}
	var lines []mem.Addr
	if mc.ctrC != nil {
		lines = mc.ctrC.CleanAll()
	}
	if len(lines) == 0 {
		mc.eng.Post(0, accepted, arg)
		return
	}
	mc.flushLeft, mc.flushDone, mc.flushArg = len(lines), accepted, arg
	for _, cl := range lines {
		mc.enqueueCounterWrite(cl, mc.evH, evArg(evFlushAccepted, 0))
	}
}

// flushAccepted counts one accepted flush write and completes the flush
// on the last.
func (mc *Controller) flushAccepted() {
	mc.flushLeft--
	if mc.flushLeft == 0 {
		mc.eng.Call(mc.flushDone, mc.flushArg)
	}
}
