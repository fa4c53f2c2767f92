// Package trace defines the per-core operation stream produced by the
// software stack and consumed by the timing replay engine.
//
// The simulator is execution-driven in two phases: a workload first runs
// functionally against the persist runtime, which records every load,
// store, clwb, sfence, counter_cache_writeback and compute gap into a
// Trace; the replay engine then executes the same trace under any of the
// six evaluated designs. One trace, many designs — the controlled
// comparison the paper's figures need.
package trace

import (
	"fmt"
	"math"
	"sync"

	"encnvm/internal/mem"
)

// Kind identifies an operation.
type Kind int

const (
	// Read is a load; the issuing core blocks until data returns.
	Read Kind = iota
	// Write is a store. It carries the full 64B line contents after the
	// store so replay can reconstruct the plaintext image in program
	// order. CounterAtomic marks stores to CounterAtomic variables.
	Write
	// Clwb writes the line back toward memory without invalidating it.
	Clwb
	// Sfence blocks the core until all previously issued clwbs and
	// counter-cache writebacks are accepted as persistent.
	Sfence
	// CCWB is the paper's counter_cache_writeback(addr) primitive: write
	// back the dirty counter-cache line covering addr (§4.3).
	CCWB
	// Compute models non-memory work as a fixed number of core cycles.
	Compute
	// TxBegin and TxEnd bracket one transaction, for throughput
	// accounting. They cost nothing.
	TxBegin
	TxEnd
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Clwb:
		return "clwb"
	case Sfence:
		return "sfence"
	case CCWB:
		return "ccwb"
	case Compute:
		return "compute"
	case TxBegin:
		return "txbegin"
	case TxEnd:
		return "txend"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Op is one traced operation.
type Op struct {
	Kind          Kind
	Addr          mem.Addr // Read/Write/Clwb/CCWB: target address
	Line          mem.Line // Write: full line contents after the store
	CounterAtomic bool     // Write: store to a CounterAtomic variable
	Cycles        uint32   // Compute: core cycles of non-memory work
}

// Validate rejects structurally malformed operations. Each payload field
// is meaningful for specific kinds only; an op carrying a field it must
// not — a clwb with line data, a compute with an address — is not a legal
// output of the persist runtime and means the trace was corrupted or
// mis-assembled, so downstream consumers (replay, the crash harness, the
// internal/check linter) must not trust it.
func (op *Op) Validate() error {
	return validate(op.Kind, op.Addr, op.Line != mem.Line{}, op.CounterAtomic, op.Cycles)
}

// validate is Validate over an op's fields, with the line reduced to
// whether it is nonzero, the one fact about it the rules read. A packed
// trace checks its headers through it without building an Op.
func validate(k Kind, addr mem.Addr, hasLine, counterAtomic bool, cycles uint32) error {
	switch k {
	case Read:
		if hasLine {
			return fmt.Errorf("read carrying line data")
		}
		if counterAtomic {
			return fmt.Errorf("read marked CounterAtomic")
		}
		if cycles != 0 {
			return fmt.Errorf("read carrying compute cycles")
		}
	case Write:
		if cycles != 0 {
			return fmt.Errorf("write carrying compute cycles")
		}
	case Clwb, CCWB:
		if hasLine {
			return fmt.Errorf("%v carrying line data", k)
		}
		if counterAtomic {
			return fmt.Errorf("%v marked CounterAtomic", k)
		}
		if cycles != 0 {
			return fmt.Errorf("%v carrying compute cycles", k)
		}
		if addr.LineOffset() != 0 {
			return fmt.Errorf("%v target %#x not line-aligned", k, addr)
		}
	case Sfence, TxBegin, TxEnd:
		if addr != 0 || hasLine || counterAtomic || cycles != 0 {
			return fmt.Errorf("%v carrying an operand", k)
		}
	case Compute:
		if cycles == 0 {
			return fmt.Errorf("zero-cycle compute")
		}
		if addr != 0 || hasLine || counterAtomic {
			return fmt.Errorf("compute carrying a memory operand")
		}
	default:
		return fmt.Errorf("unknown kind %d", int(k))
	}
	return nil
}

// Trace is one core's operation stream. Its ops are unexported: Append
// adds one, and At and Ops read them, so an op cannot change under the
// check record Check keeps. A trace may be shared across goroutines once
// it is built; Append must not run concurrently with any other method.
//
// The ops are packed. Each op is a 16-byte header in fixed-size chunks,
// and the line of an op that carries one (a nonzero line) goes in a
// chunked side store that the header indexes by ordinal. An op that a
// header cannot hold exactly, one whose kind is outside a byte or that
// carries a line and nonzero cycles, goes whole into an overflow slice.
// No such op is valid, but the linter's R0 path and the fuzzers feed
// them. Chunks never move, so growing a trace copies no op, and At
// returns exactly what Append got.
type Trace struct {
	n     int
	heads []*[headChunk]header
	lines []*[lineChunk]mem.Line
	nline int
	over  []Op

	// The check record: Check has validated ops [0, checked), leaving
	// the transaction tracker in tx and the first per-op error in err.
	// mu guards it, since replays on several goroutines check one trace.
	mu      sync.Mutex
	checked int
	tx      txTracker
	err     error
}

// Chunk sizes: 512 headers or 128 lines, 8 KiB each, so a short trace
// stays small and a long one needs few chunk pointers.
const (
	headShift = 9
	headChunk = 1 << headShift
	lineShift = 7
	lineChunk = 1 << lineShift
)

// header is one op without its line. arg holds the compute cycles, or
// with hdrLine the line's ordinal, or with hdrOverflow the op's index in
// the overflow slice.
type header struct {
	kind  uint8
	flags uint8
	arg   uint32
	addr  mem.Addr
}

const (
	hdrCounterAtomic = 1 << iota
	hdrLine
	hdrOverflow
)

// cycles returns the op's compute cycles.
func (h *header) cycles() uint32 {
	if h.flags&hdrLine != 0 {
		return 0
	}
	return h.arg
}

// New returns a trace of ops: the caller edits a copy (see Ops) into
// the stream it wants.
func New(ops []Op) *Trace {
	t := &Trace{}
	for i := range ops {
		t.Append(ops[i])
	}
	return t
}

// Append adds an op.
func (t *Trace) Append(op Op) {
	if t.n&(headChunk-1) == 0 {
		t.heads = append(t.heads, new([headChunk]header))
	}
	h := &t.heads[t.n>>headShift][t.n&(headChunk-1)]
	t.n++
	hasLine := op.Line != mem.Line{}
	if uint(op.Kind) > math.MaxUint8 || hasLine && op.Cycles != 0 {
		*h = header{flags: hdrOverflow, arg: uint32(len(t.over))}
		t.over = append(t.over, op)
		return
	}
	*h = header{kind: uint8(op.Kind), arg: op.Cycles, addr: op.Addr}
	if op.CounterAtomic {
		h.flags = hdrCounterAtomic
	}
	if hasLine {
		if t.nline&(lineChunk-1) == 0 {
			t.lines = append(t.lines, new([lineChunk]mem.Line))
		}
		t.lines[t.nline>>lineShift][t.nline&(lineChunk-1)] = op.Line
		h.flags |= hdrLine
		h.arg = uint32(t.nline)
		t.nline++
	}
}

// Len returns the number of ops.
func (t *Trace) Len() int { return t.n }

// head returns op i's header.
func (t *Trace) head(i int) *header {
	if uint(i) >= uint(t.n) {
		panic("trace: op index out of range")
	}
	return &t.heads[i>>headShift][i&(headChunk-1)]
}

// At returns op i.
func (t *Trace) At(i int) Op {
	h := t.head(i)
	if h.flags&hdrOverflow != 0 {
		return t.over[h.arg]
	}
	op := Op{Kind: Kind(h.kind), Addr: h.addr, CounterAtomic: h.flags&hdrCounterAtomic != 0, Cycles: h.cycles()}
	if h.flags&hdrLine != 0 {
		op.Line = t.lines[h.arg>>lineShift][h.arg&(lineChunk-1)]
	}
	return op
}

// Head returns op i without its line: what replay dispatches on. Line
// reads the line when the op needs it.
func (t *Trace) Head(i int) (k Kind, addr mem.Addr, cycles uint32, counterAtomic bool) {
	h := t.head(i)
	if h.flags&hdrOverflow != 0 {
		op := &t.over[h.arg]
		return op.Kind, op.Addr, op.Cycles, op.CounterAtomic
	}
	// h.cycles() spelled out: the call would put Head over the
	// inliner's budget, and replay calls Head for every op.
	if h.flags&hdrLine == 0 {
		cycles = h.arg
	}
	return Kind(h.kind), h.addr, cycles, h.flags&hdrCounterAtomic != 0
}

// Line returns op i's line, zero if it carries none.
func (t *Trace) Line(i int) mem.Line {
	h := t.head(i)
	switch {
	case h.flags&hdrLine != 0:
		return t.lines[h.arg>>lineShift][h.arg&(lineChunk-1)]
	case h.flags&hdrOverflow != 0:
		return t.over[h.arg].Line
	}
	return mem.Line{}
}

// Ops returns a copy of the op stream, for callers that edit a trace
// into a new one (New).
func (t *Trace) Ops() []Op {
	ops := make([]Op, t.n)
	for i := range ops {
		ops[i] = t.At(i)
	}
	return ops
}

// Counts returns how many ops of each kind the trace contains.
func (t *Trace) Counts() map[Kind]int {
	out := make(map[Kind]int)
	for i := 0; i < t.n; i++ {
		k, _, _, _ := t.Head(i)
		out[k]++
	}
	return out
}

// Transactions returns the number of complete TxBegin/TxEnd pairs.
func (t *Trace) Transactions() int {
	begins, ends := 0, 0
	for i := 0; i < t.n; i++ {
		switch k, _, _, _ := t.Head(i); k {
		case TxBegin:
			begins++
		case TxEnd:
			ends++
		}
	}
	if ends < begins {
		return ends
	}
	return begins
}

// Validate checks whole-trace structural sanity on top of the per-op
// Op.Validate: every op well-formed, transaction markers balanced and
// unnested (the runtime's model is one open transaction per core). Every
// trace ingestion point — replay.NewMachine, the crash harness, traceinfo, the
// static verifier — calls this before trusting the stream; op indices in
// downstream diagnostics are positions in the trace.
func (t *Trace) Validate() error {
	_, err := t.Check()
	return err
}

// Check is Validate that also returns the number of TxEnd ops. It
// validates only the ops appended since it last ran and records the
// result, so checking a trace again, as every replay of it does, costs
// nothing.
func (t *Trace) Check() (txEnds int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.scan(); err != nil {
		return 0, err
	}
	return t.tx.ends, t.tx.finish()
}

// scan extends the check record over the ops appended since the last
// scan and returns the first per-op error. An unclosed transaction is
// not a per-op error: a later Append may close it.
func (t *Trace) scan() error {
	for t.err == nil && t.checked < t.n {
		h := t.head(t.checked)
		var k Kind
		var err error
		if h.flags&hdrOverflow != 0 {
			op := &t.over[h.arg]
			k, err = op.Kind, op.Validate()
		} else {
			k = Kind(h.kind)
			err = validate(k, h.addr, h.flags&hdrLine != 0, h.flags&hdrCounterAtomic != 0, h.cycles())
		}
		t.err = t.tx.op(t.checked, k, err)
		t.checked++
	}
	return t.err
}

// txTracker is the streaming validator behind Check: per-op structural
// checks plus transaction nesting. It counts the TxEnds it passes,
// which replay sizes its per-transaction history by.
type txTracker struct {
	depth int
	ends  int
}

// op advances over op i, of kind k, whose own check returned bad.
func (t *txTracker) op(i int, k Kind, bad error) error {
	if bad != nil {
		return fmt.Errorf("trace: op %d: %w", i, bad)
	}
	switch k {
	case TxBegin:
		t.depth++
		if t.depth > 1 {
			return fmt.Errorf("trace: nested TxBegin at op %d", i)
		}
	case TxEnd:
		t.depth--
		if t.depth < 0 {
			return fmt.Errorf("trace: TxEnd without TxBegin at op %d", i)
		}
		t.ends++
	}
	return nil
}

func (t *txTracker) finish() error {
	if t.depth != 0 {
		return fmt.Errorf("trace: %d unclosed transactions", t.depth)
	}
	return nil
}

// ValidateAll validates one trace per core, reporting the offending core.
// It is the multi-core ingestion check: replay and the crash harness take
// a trace set, and a single malformed core stream must poison the whole
// set before any of it is replayed.
func ValidateAll(traces []*Trace) error {
	for i, tr := range traces {
		if tr == nil {
			return fmt.Errorf("trace: core %d: nil trace", i)
		}
		if err := tr.Validate(); err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
	}
	return nil
}

// FootprintLines returns the number of distinct data lines touched.
func (t *Trace) FootprintLines() int {
	seen := make(map[mem.Addr]bool)
	for i := 0; i < t.n; i++ {
		switch k, addr, _, _ := t.Head(i); k {
		case Read, Write, Clwb:
			seen[addr.LineAddr()] = true
		}
	}
	return len(seen)
}
