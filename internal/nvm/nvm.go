// Package nvm models the PCM main-memory device: a set of independent
// banks behind one shared DDR3-style bus, with the Table-2 timing
// parameters. Reads occupy the bank for the array access (tRCD+tCL) and
// then burst the line over the bus; writes burst first and then occupy the
// bank for the long PCM programming time (tCWD+tWR ≈ 313ns), which is what
// makes write-queue backpressure matter.
//
// The device is also the functional NVM: every completed write lands in a
// timestamped mem.Image so a crash can be injected at any instant.
package nvm

import (
	"encnvm/internal/config"
	"encnvm/internal/mem"
	"encnvm/internal/probe"
	"encnvm/internal/sim"
	"encnvm/internal/stats"
)

// Device is one NVM module. All methods must be called from within the
// simulation event loop (they are not goroutine-safe).
type Device struct {
	eng     *sim.Engine
	cfg     *config.Config
	backend Backend
	timing  config.NVMTiming
	layout  mem.Layout

	banks []bank
	bus   sim.Resource

	// writes holds the in-flight device writes; a completion event's
	// argument is its record's index. freeWrite heads the free list
	// threaded through the records' next fields (-1 when empty); a write
	// finding it empty appends a record.
	writes    []inflightWrite
	freeWrite int32
	writtenH  sim.Handler

	image *mem.Image
	st    *stats.Stats

	// pb, when non-nil, receives per-bank and bus busy intervals for the
	// observability timeline. Nil by default: the hot paths pay one nil
	// check and nothing else.
	pb *probe.Probe

	// wear counts device writes per line for endurance analysis
	// (§6.3.3: PCM cells endure a bounded number of writes).
	wear mem.Table[uint64]
}

// New builds a device for the given configuration over the default PCM
// backend (the paper's Table-2 timing).
func New(eng *sim.Engine, cfg *config.Config, st *stats.Stats) *Device {
	return NewWithBackend(eng, cfg, PCM, st)
}

// NewWithBackend builds a device whose array timing comes from the given
// backend. Everything else — banks, bus, functional image, wear — is
// technology-independent.
func NewWithBackend(eng *sim.Engine, cfg *config.Config, b Backend, st *stats.Stats) *Device {
	d := &Device{
		eng:       eng,
		cfg:       cfg,
		backend:   b,
		timing:    b.Timing(cfg),
		layout:    mem.NewLayout(cfg.MemoryBytes),
		banks:     make([]bank, cfg.Banks),
		image:     mem.NewImage(),
		st:        st,
		freeWrite: -1, // empty free list
	}
	d.writtenH = eng.Register(d.written)
	return d
}

// ReserveWrites sizes the in-flight write slab so that n writes can be
// in flight without reallocation. The memory controller calls it once,
// with its issue widths, when it is built.
func (d *Device) ReserveWrites(n int) {
	if cap(d.writes)-len(d.writes) < n {
		d.writes = append(make([]inflightWrite, 0, len(d.writes)+n), d.writes...)
	}
}

// bank tracks one bank's read and write occupancy separately, modeling
// PCM write pausing: a read preempts an in-progress array write, so
// reads contend only with other reads on the bank while writes serialize
// among themselves. Without this, the 300ns PCM write recovery would
// dominate every read and mask the decryption-latency effects the paper
// measures.
type bank struct {
	read, write sim.Resource
}

// inflightWrite is one device write between issue and landing: what the
// image records when it lands, and the owner's completion.
type inflightWrite struct {
	addr mem.Addr
	data mem.Line
	tag  uint64
	arg  uint64
	sum  uint16
	next int32 // free-list link while the record is unused
	done sim.Handler
}

// Layout returns the device's data/counter address layout.
func (d *Device) Layout() mem.Layout { return d.layout }

// Backend returns the timing backend the device was built over.
func (d *Device) Backend() Backend { return d.backend }

// SetProbe attaches the observability probe (nil detaches it).
func (d *Device) SetProbe(p *probe.Probe) { d.pb = p }

// Image returns the functional contents with write timestamps.
func (d *Device) Image() *mem.Image { return d.image }

// bankIndex hashes a line address onto a bank. XOR-folding high line-index
// bits keeps power-of-two strides (per-core arenas, log-slot spacing) from
// collapsing onto one bank — standard memory-controller bank hashing.
func (d *Device) bankIndex(addr mem.Addr) int {
	idx := addr.LineIndex()
	h := idx ^ idx>>7 ^ idx>>13 ^ idx>>19
	return int(h % uint64(len(d.banks)))
}

// Read schedules a read of the line at addr and posts (h, arg) at its
// completion time. The data itself flows through the replay engine's
// plaintext image; the device provides timing and traffic. nbytes is the
// access size (64, or 72 when counters are co-located) and only affects
// bus occupancy.
func (d *Device) Read(addr mem.Addr, nbytes int, h sim.Handler, arg uint64) {
	addr = addr.LineAddr()
	now := d.eng.Now()
	bank := d.bankIndex(addr)
	bankStart, bankEnd := d.banks[bank].read.Reserve(now, d.timing.TRCD+d.timing.TCL)
	busStart, busEnd := d.bus.Reserve(bankEnd, d.cfg.BurstTime(nbytes))
	if d.pb != nil {
		d.pb.BankBusy(false, bank, uint64(addr), bankStart, bankEnd)
		d.pb.BusBusy(uint64(addr), busStart, busEnd)
	}

	d.st.Inc(stats.Reads, 1)
	d.st.Inc(stats.BytesRead, uint64(nbytes))
	d.st.Observe(stats.NVMReadLatency, busEnd-now)

	d.eng.PostAt(busEnd, h, arg)
}

// Write schedules a write of the line at addr. The data becomes persistent
// (lands in the image) at the completion time, and the device then calls
// (h, arg) in the same event; NoHandler calls nothing. nbytes is the
// access size for bus occupancy and traffic accounting; the stats
// classify traffic as data or counter by address region. tag is the
// ground-truth encryption counter recorded with the image write (0 when
// not applicable).
func (d *Device) Write(addr mem.Addr, data mem.Line, nbytes int, tag uint64, sum uint16, h sim.Handler, arg uint64) {
	addr = addr.LineAddr()
	now := d.eng.Now()
	bank := d.bankIndex(addr)
	busStart, busEnd := d.bus.Reserve(now, d.cfg.BurstTime(nbytes))
	bankStart, bankEnd := d.banks[bank].write.Reserve(busEnd, d.timing.TCWD+d.timing.TWR)
	if d.pb != nil {
		d.pb.BusBusy(uint64(addr), busStart, busEnd)
		d.pb.BankBusy(true, bank, uint64(addr), bankStart, bankEnd)
	}

	if d.layout.IsCounter(addr) {
		d.st.Inc(stats.CounterWrites, 1)
		d.st.Inc(stats.CounterBytesWritten, uint64(nbytes))
	} else {
		d.st.Inc(stats.DataWrites, 1)
		d.st.Inc(stats.DataBytesWritten, uint64(nbytes))
	}
	d.st.Observe(stats.NVMWriteLatency, bankEnd-now)
	*d.wear.Ptr(addr)++

	i := d.freeWrite
	if i >= 0 {
		d.freeWrite = d.writes[i].next
	} else {
		i = int32(len(d.writes))
		d.writes = append(d.writes, inflightWrite{})
	}
	d.writes[i] = inflightWrite{addr: addr, data: data, tag: tag, arg: arg, sum: sum, done: h}
	d.eng.PostAt(bankEnd, d.writtenH, uint64(i))
}

// written lands the in-flight write i in the image (its completion event
// fires at the landing time) and hands completion to its owner. The
// record is free again before the owner runs, so the owner may issue the
// next write into it.
func (d *Device) written(i uint64) {
	w := &d.writes[i]
	d.image.ApplyFull(w.addr, w.data, d.eng.Now(), w.tag, w.sum)
	h, arg := w.done, w.arg
	w.next = d.freeWrite
	d.freeWrite = int32(i)
	d.eng.Call(h, arg)
}

// WriteAt records a write that is already persistent at time at, bypassing
// timing — used by the ADR drain at crash time, which runs on residual
// power outside normal scheduling.
func (d *Device) WriteAt(addr mem.Addr, data mem.Line, tag uint64, sum uint16, at sim.Time) {
	d.image.ApplyFull(addr.LineAddr(), data, at, tag, sum)
}

// ReadLatency returns the unloaded latency of one read access: array access
// plus burst. Used for reporting, not scheduling.
func (d *Device) ReadLatency(nbytes int) sim.Time {
	return d.timing.TRCD + d.timing.TCL + d.cfg.BurstTime(nbytes)
}

// WriteLatency returns the unloaded latency of one write access.
func (d *Device) WriteLatency(nbytes int) sim.Time {
	return d.cfg.BurstTime(nbytes) + d.timing.TCWD + d.timing.TWR
}

// BusBusyTime reports total bus occupancy so far.
func (d *Device) BusBusyTime() sim.Time { return d.bus.BusyTime() }

// Wear summarizes device write endurance: lines ever written, total line
// writes, and the hottest line's write count. Under ideal (uniform) wear
// leveling, lifetime is inversely proportional to total writes; without
// leveling the hottest line dies first.
func (d *Device) Wear() (lines int, total, hottest uint64) {
	d.wear.Each(func(_ mem.Addr, n *uint64) {
		total += *n
		if *n > hottest {
			hottest = *n
		}
	})
	return d.wear.Len(), total, hottest
}
