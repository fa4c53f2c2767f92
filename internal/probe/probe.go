// Package probe is the simulator's observability layer: a zero-cost-when-
// disabled instrumentation hub threaded through the event engine, the memory
// controller, the NVM device and the replay cores.
//
// A *Probe is nil by default. Every hook is safe to call on a nil receiver
// and returns immediately, so components pay exactly one nil check on hot
// paths (call sites additionally guard with `if pb != nil` where the hook
// takes computed arguments). When enabled, a probe fans out to up to two
// sinks:
//
//   - a TraceWriter producing a Chrome trace-event / Perfetto JSON timeline
//     in *simulated* time: per-bank and bus busy intervals, write-queue
//     depths as counter tracks, per-transaction spans with their
//     log/seal/mutate/commit-switch stages, counter-atomic write acceptance
//     spans, and encryption-pipeline occupancy;
//   - a MetricsWriter emitting windowed time-series rows as JSONL, sampled
//     every configurable slice of simulated time.
//
// All output is fully deterministic: events are emitted in event-loop order
// and timestamps are formatted as exact decimals, so identical seed+config
// runs produce byte-identical files. The run Manifest, the end-of-run
// document, is built by internal/core.
package probe

import (
	"io"
	"strconv"

	"encnvm/internal/sim"
)

// Trace process ids — the fixed track taxonomy of the timeline.
const (
	// PidSoftware holds one thread per replay core carrying transaction
	// spans (tx → log/log-seal/mutate/commit-switch).
	PidSoftware = 1
	// PidMemctrl holds the controller tracks: counter-atomic write
	// acceptance spans, encryption-pipeline occupancy, and the queue-depth
	// counter tracks.
	PidMemctrl = 2
	// PidNVM holds the device tracks: one thread per bank direction plus
	// the shared bus.
	PidNVM = 3
)

// Thread ids inside PidMemctrl / PidNVM.
const (
	TidCAWrites = 1 // counter-atomic write acceptance spans
	TidEncrypt  = 2 // encryption pipeline occupancy

	TidBus       = 1   // shared memory bus
	TidReadBank  = 100 // + bank index
	TidWriteBank = 300 // + bank index
)

// Probe is the instrumentation hub. The zero value has no sinks attached
// and emits nothing; a nil *Probe is the disabled state every component
// defaults to.
type Probe struct {
	tw *TraceWriter
	mw *MetricsWriter

	// Last emitted queue depths, so the counter track only carries
	// changes. -1 forces the first emission.
	lastData, lastCtr, lastPending int
}

// New returns a probe with no sinks attached.
func New() *Probe {
	return &Probe{lastData: -1, lastCtr: -1, lastPending: -1}
}

// AttachTrace directs timeline events to w as Chrome trace-event JSON.
func (p *Probe) AttachTrace(w io.Writer) *Probe {
	p.tw = NewTraceWriter(w)
	return p
}

// AttachMetrics directs windowed time-series rows to w as JSONL, one row
// per window of simulated time.
func (p *Probe) AttachMetrics(w io.Writer, window sim.Time) *Probe {
	p.mw = NewMetricsWriter(w, window)
	return p
}

// Trace returns the timeline sink, or nil when tracing is disabled.
func (p *Probe) Trace() *TraceWriter {
	if p == nil {
		return nil
	}
	return p.tw
}

// Metrics returns the windowed-metrics sink, or nil when disabled.
func (p *Probe) Metrics() *MetricsWriter {
	if p == nil {
		return nil
	}
	return p.mw
}

// Close finalizes both sinks at the given end-of-run instant: the metrics
// writer flushes every remaining window (plus a final partial row) and the
// trace writer terminates its JSON document. It returns the first error
// either sink encountered. Close on a nil probe is a no-op.
func (p *Probe) Close(end sim.Time) error {
	if p == nil {
		return nil
	}
	var first error
	if p.mw != nil {
		if err := p.mw.Close(end); err != nil {
			first = err
		}
	}
	if p.tw != nil {
		if err := p.tw.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// OnAdvance is the sim.Engine clock hook: it moves the metrics windows
// forward. It must not schedule events.
func (p *Probe) OnAdvance(now sim.Time) {
	if p == nil || p.mw == nil {
		return
	}
	p.mw.Advance(now)
}

// EmitTopology names the timeline's processes and threads so Perfetto
// renders readable tracks. Call once, before any events.
func (p *Probe) EmitTopology(cores, banks int) {
	if p == nil || p.tw == nil {
		return
	}
	t := p.tw
	t.ProcessName(PidSoftware, "software")
	t.ProcessName(PidMemctrl, "memctrl")
	t.ProcessName(PidNVM, "nvm")
	for i := 0; i < cores; i++ {
		t.ThreadName(PidSoftware, i, "core "+strconv.Itoa(i))
	}
	t.ThreadName(PidMemctrl, TidCAWrites, "ca-writes")
	t.ThreadName(PidMemctrl, TidEncrypt, "encrypt")
	t.ThreadName(PidNVM, TidBus, "bus")
	for i := 0; i < banks; i++ {
		t.ThreadName(PidNVM, TidReadBank+i, "bank "+strconv.Itoa(i)+" rd")
		t.ThreadName(PidNVM, TidWriteBank+i, "bank "+strconv.Itoa(i)+" wr")
	}
}

// ---------------------------------------------------------------------------
// Hooks. All are nil-safe; hot callers additionally guard with `pb != nil`.

// SpanBegin opens a nested span on the given core's software track.
func (p *Probe) SpanBegin(core int, name string, at sim.Time) {
	if p == nil || p.tw == nil {
		return
	}
	p.tw.Begin(PidSoftware, core, name, at)
}

// SpanEnd closes the innermost open span on the core's software track.
func (p *Probe) SpanEnd(core int, at sim.Time) {
	if p == nil || p.tw == nil {
		return
	}
	p.tw.End(PidSoftware, core, at)
}

// CAWrite records one counter-atomic data write from arrival at the
// controller to its atomic acceptance into both ADR queues.
func (p *Probe) CAWrite(addr uint64, start, end sim.Time) {
	if p == nil || p.tw == nil {
		return
	}
	p.tw.CompleteAddr(PidMemctrl, TidCAWrites, "ca-write", start, end, addr)
}

// Encrypt records one line's occupancy of the encryption pipeline.
func (p *Probe) Encrypt(addr uint64, start, end sim.Time) {
	if p == nil || p.tw == nil {
		return
	}
	p.tw.CompleteAddr(PidMemctrl, TidEncrypt, "encrypt", start, end, addr)
}

// QueueDepth records the controller's queue occupancy as counter tracks,
// deduplicating unchanged samples.
func (p *Probe) QueueDepth(at sim.Time, data, ctr, pending int) {
	if p == nil || p.tw == nil {
		return
	}
	if data == p.lastData && ctr == p.lastCtr && pending == p.lastPending {
		return
	}
	p.lastData, p.lastCtr, p.lastPending = data, ctr, pending
	p.tw.Counter(PidMemctrl, "write-queues", at,
		CounterKV{"data", int64(data)},
		CounterKV{"counter", int64(ctr)},
		CounterKV{"pending", int64(pending)})
}

// BankBusy records one bank reservation (array access) interval.
func (p *Probe) BankBusy(write bool, bank int, addr uint64, start, end sim.Time) {
	if p == nil || p.tw == nil {
		return
	}
	tid, name := TidReadBank+bank, "rd"
	if write {
		tid, name = TidWriteBank+bank, "wr"
	}
	p.tw.CompleteAddr(PidNVM, tid, name, start, end, addr)
}

// BusBusy records one burst's occupancy of the shared memory bus.
func (p *Probe) BusBusy(addr uint64, start, end sim.Time) {
	if p == nil || p.tw == nil {
		return
	}
	p.tw.CompleteAddr(PidNVM, TidBus, "burst", start, end, addr)
}
