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
	var zero mem.Line
	switch op.Kind {
	case Read:
		if op.Line != zero {
			return fmt.Errorf("read carrying line data")
		}
		if op.CounterAtomic {
			return fmt.Errorf("read marked CounterAtomic")
		}
		if op.Cycles != 0 {
			return fmt.Errorf("read carrying compute cycles")
		}
	case Write:
		if op.Cycles != 0 {
			return fmt.Errorf("write carrying compute cycles")
		}
	case Clwb, CCWB:
		if op.Line != zero {
			return fmt.Errorf("%v carrying line data", op.Kind)
		}
		if op.CounterAtomic {
			return fmt.Errorf("%v marked CounterAtomic", op.Kind)
		}
		if op.Cycles != 0 {
			return fmt.Errorf("%v carrying compute cycles", op.Kind)
		}
		if op.Addr.LineOffset() != 0 {
			return fmt.Errorf("%v target %#x not line-aligned", op.Kind, op.Addr)
		}
	case Sfence, TxBegin, TxEnd:
		if op.Addr != 0 || op.Line != zero || op.CounterAtomic || op.Cycles != 0 {
			return fmt.Errorf("%v carrying an operand", op.Kind)
		}
	case Compute:
		if op.Cycles == 0 {
			return fmt.Errorf("zero-cycle compute")
		}
		if op.Addr != 0 || op.Line != zero || op.CounterAtomic {
			return fmt.Errorf("compute carrying a memory operand")
		}
	default:
		return fmt.Errorf("unknown kind %d", int(op.Kind))
	}
	return nil
}

// Trace is one core's operation stream. Its ops are unexported: Append
// adds one, and At and Ops read them, so an op cannot change under the
// check record Check keeps. A trace may be shared across goroutines once
// it is built; Append must not run concurrently with any other method.
type Trace struct {
	ops []Op

	// The check record: Check has validated ops[:checked], leaving the
	// transaction tracker in tx and the first per-op error in err. mu
	// guards it, since replays on several goroutines check one trace.
	mu      sync.Mutex
	checked int
	tx      txTracker
	err     error
}

// New returns a trace over ops, which it takes over: the caller passes
// a copy it has edited (see Ops) and does not touch it afterwards.
func New(ops []Op) *Trace { return &Trace{ops: ops} }

// Append adds an op.
func (t *Trace) Append(op Op) { t.ops = append(t.ops, op) }

// Len returns the number of ops.
func (t *Trace) Len() int { return len(t.ops) }

// At returns op i.
func (t *Trace) At(i int) Op { return t.ops[i] }

// Ops returns a copy of the op stream, for callers that edit a trace
// into a new one (New).
func (t *Trace) Ops() []Op { return append([]Op(nil), t.ops...) }

// Counts returns how many ops of each kind the trace contains.
func (t *Trace) Counts() map[Kind]int {
	out := make(map[Kind]int)
	for _, op := range t.ops {
		out[op.Kind]++
	}
	return out
}

// Transactions returns the number of complete TxBegin/TxEnd pairs.
func (t *Trace) Transactions() int {
	begins, ends := 0, 0
	for _, op := range t.ops {
		switch op.Kind {
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
	for t.err == nil && t.checked < len(t.ops) {
		t.err = t.tx.op(t.checked, &t.ops[t.checked])
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

func (t *txTracker) op(i int, op *Op) error {
	if err := op.Validate(); err != nil {
		return fmt.Errorf("trace: op %d: %w", i, err)
	}
	switch op.Kind {
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
	for _, op := range t.ops {
		switch op.Kind {
		case Read, Write, Clwb:
			seen[op.Addr.LineAddr()] = true
		}
	}
	return len(seen)
}
