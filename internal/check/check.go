// Package check is a WITCHER-style crash-consistency linter for recorded
// traces: it analyzes a trace.Trace without replaying it, modeling each
// cache line's persistence lifecycle (dirty → flushed → persisted) and
// each counter-cache line's writeback state, and reports every point
// where the stream violates the paper's ordering rules (§4.2–§4.3).
//
// Where the crash harness samples crash points and hopes to hit a window,
// the linter reasons over the whole stream at once: a rule violation is
// reported even if no sampled crash instant would have exposed it. The
// five shipped rules are:
//
//	R1  a store whose line is never clwb'd + sfence'd before the
//	    transaction ends (or, for untransactional stores, before the
//	    trace ends) — the write may still be in the volatile cache at a
//	    crash arbitrarily far in the future.
//	R2  a clwb or counter_cache_writeback with no subsequent sfence —
//	    the writeback is issued but nothing ever orders it.
//	R3  a CounterAtomic store (a version switch) while some counter
//	    line dirtied by earlier plain stores has not been written back
//	    and fenced — the §4.3 protocol: only the switch line itself may
//	    rely on counter-atomicity; everything it publishes needs its
//	    counters durable first.
//	R4  a CounterAtomic store while some earlier store's data line is
//	    not yet persisted — the log valid flag (or publish pointer) must
//	    not flip before the payload's persist barrier completes.
//	R5  an in-place mutation inside a transaction before the log
//	    entry's valid switch is persistent — mutating the only
//	    recoverable version while the backup is not yet committed.
//
// The rules read the static verifier's per-line persistence state
// (verify.State, under its default model) and keep only their own
// bookkeeping: R1 the stores it reported, R2 the unfenced writebacks, R3
// each counter group's writeback status, R5 the latest log switch.
package check

import (
	"encnvm/internal/check/verify"
	"encnvm/internal/persist"
	"encnvm/internal/trace"
)

// Options configures one linter run.
type Options struct {
	// Arenas locates per-core log regions so R5 can tell in-place
	// mutations (heap) apart from log-entry writes. Leaving it empty
	// disables R5; R1–R4 never need it.
	Arenas []persist.Arena
}

// rule checks one ordering property over the evolving persistence state.
// Check runs before the state applies op i, so the rule observes the
// machine exactly as the op finds it; Finish runs once after the last
// op. Rules carry per-run state, so a fresh instance is needed per
// linter run (defaultRules returns fresh instances).
type rule interface {
	// ID is the stable diagnostic tag ("R1".."R5").
	ID() string
	// Doc is the one-line description shown by tooling.
	Doc() string
	Check(s *verify.State, i int, op trace.Op) []Diagnostic
	Finish(s *verify.State, n int) []Diagnostic
}

// Check lints the trace and returns all diagnostics, sorted by op index.
// Malformed ops (per trace.Op.Validate) and unbalanced transaction
// markers — nested, stray or never closed — are reported under the
// pseudo-rule R0, and the ops are excluded from the persistence state
// machine rather than trusted. Check lints op by op and does not read
// the trace's check record, so a malformed trace yields every R0 finding.
func Check(tr *trace.Trace, opts Options) []Diagnostic {
	rules := defaultRules()
	s := verify.NewState(verify.Options{Arenas: opts.Arenas})
	txBegin := 0
	var diags []Diagnostic
	n := tr.Len()
	for i := 0; i < n; i++ {
		op := tr.At(i)
		if err := op.Validate(); err != nil {
			diags = append(diags, Diagnostic{
				Rule: "R0", OpIndex: i,
				Message: "malformed op: " + err.Error(),
			})
			continue
		}
		switch op.Kind {
		case trace.TxBegin:
			if s.InTx() {
				diags = append(diags, Diagnostic{
					Rule: "R0", OpIndex: i,
					Message: "nested TxBegin",
				})
				continue
			}
			txBegin = i
		case trace.TxEnd:
			if !s.InTx() {
				diags = append(diags, Diagnostic{
					Rule: "R0", OpIndex: i,
					Message: "TxEnd without TxBegin",
				})
				continue
			}
		}
		for _, r := range rules {
			diags = append(diags, r.Check(s, i, op)...)
		}
		s.Apply(i, op)
	}
	if s.InTx() {
		diags = append(diags, Diagnostic{
			Rule: "R0", OpIndex: txBegin,
			Message: "TxBegin without TxEnd",
		})
	}
	for _, r := range rules {
		diags = append(diags, r.Finish(s, n)...)
	}
	sortDiagnostics(diags)
	return diags
}
