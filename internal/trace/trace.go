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

// Trace is one core's operation stream.
type Trace struct {
	Ops []Op
}

// Append adds an op.
func (t *Trace) Append(op Op) { t.Ops = append(t.Ops, op) }

// Len returns the number of ops.
func (t *Trace) Len() int { return len(t.Ops) }

// Op copies operation i into dst, satisfying Source.
func (t *Trace) Op(i int, dst *Op) { *dst = t.Ops[i] }

// Counts returns how many ops of each kind the trace contains.
func (t *Trace) Counts() map[Kind]int {
	out := make(map[Kind]int)
	for _, op := range t.Ops {
		out[op.Kind]++
	}
	return out
}

// Transactions returns the number of complete TxBegin/TxEnd pairs.
func (t *Trace) Transactions() int {
	begins, ends := 0, 0
	for _, op := range t.Ops {
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
// downstream diagnostics are positions in Ops and are monotone by
// construction.
func (t *Trace) Validate() error {
	_, err := t.Check()
	return err
}

// Check is Validate that also returns the number of TxEnd ops, counted
// in the same pass; it satisfies Source.
func (t *Trace) Check() (txEnds int, err error) {
	var tx txTracker
	for i := range t.Ops {
		if err := tx.op(i, &t.Ops[i]); err != nil {
			return 0, err
		}
	}
	return tx.ends, tx.finish()
}

// txTracker is the shared streaming validator behind Trace.Check and
// NewBinReader: per-op structural checks plus transaction nesting in a
// single pass, so both the in-memory and the binary ingestion paths
// enforce the same invariants with the same diagnostics. It counts the
// TxEnds it passes, which replay sizes its per-transaction history by.
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
	for _, op := range t.Ops {
		switch op.Kind {
		case Read, Write, Clwb:
			seen[op.Addr.LineAddr()] = true
		}
	}
	return len(seen)
}
