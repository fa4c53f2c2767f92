package check

import (
	"fmt"

	"encnvm/internal/check/verify"
	"encnvm/internal/mem"
	"encnvm/internal/trace"
)

// defaultRules returns fresh instances of the five shipped rules, in ID
// order. Rules carry per-run state, so the result must not be shared
// between Check calls.
func defaultRules() []rule {
	return []rule{
		&ruleStorePersisted{},
		&ruleWritebackFenced{},
		&ruleCounterWriteback{groups: make(map[mem.Addr]*ctrGroup)},
		&ruleSwitchAfterPayload{},
		&ruleMutateAfterValid{},
	}
}

// RuleDocs returns "ID: doc" lines for every default rule, for tooling.
func RuleDocs() []string {
	var out []string
	for _, r := range defaultRules() {
		out = append(out, r.ID()+": "+r.Doc())
	}
	return out
}

// ---------------------------------------------------------------------------
// R1 — every store persisted before its transaction (or the trace) ends.

type ruleStorePersisted struct {
	// reported dedupes the TxEnd and end-of-trace scans: one diagnostic
	// per offending store, keyed by (line, store op index).
	reported map[storeKey]bool
}

type storeKey struct {
	addr mem.Addr
	at   int
}

func (*ruleStorePersisted) ID() string { return "R1" }
func (*ruleStorePersisted) Doc() string {
	return "store not clwb'd+sfence'd before the transaction (or trace) ends"
}

func (r *ruleStorePersisted) flag(li verify.Line, where string) []Diagnostic {
	if r.reported == nil {
		r.reported = make(map[storeKey]bool)
	}
	key := storeKey{li.Addr, li.StoredAt}
	if r.reported[key] {
		return nil
	}
	r.reported[key] = true
	return []Diagnostic{{
		Rule: r.ID(), OpIndex: li.StoredAt, Addr: li.Addr,
		Message: fmt.Sprintf("store to line %#x not persisted before %s (%s)",
			li.Addr, where, unpersisted(li)),
	}}
}

func (r *ruleStorePersisted) Check(s *verify.State, i int, op trace.Op) []Diagnostic {
	if op.Kind != trace.TxEnd {
		return nil
	}
	var ds []Diagnostic
	s.Lines(func(li verify.Line) {
		if li.StoreInTx && !li.DataSafe {
			ds = append(ds, r.flag(li, fmt.Sprintf("TxEnd at op %d", i))...)
		}
	})
	return ds
}

func (r *ruleStorePersisted) Finish(s *verify.State, n int) []Diagnostic {
	var ds []Diagnostic
	s.Lines(func(li verify.Line) {
		if li.StoredAt >= 0 && !li.DataSafe {
			ds = append(ds, r.flag(li, "end of trace")...)
		}
	})
	return ds
}

// unpersisted names why a stored line's data is not yet persisted: no
// clwb since the store (dirty), or a clwb no fence has ordered yet
// (flushed).
func unpersisted(li verify.Line) string {
	if li.DataWBAt >= 0 {
		return "clwb issued but never fenced"
	}
	return "no clwb issued"
}

// ---------------------------------------------------------------------------
// R2 — every clwb / counter_cache_writeback followed by an sfence.

type ruleWritebackFenced struct {
	pending []Diagnostic // writebacks with no fence seen yet
}

func (*ruleWritebackFenced) ID() string { return "R2" }
func (*ruleWritebackFenced) Doc() string {
	return "clwb or counter_cache_writeback with no subsequent sfence"
}

func (r *ruleWritebackFenced) Check(s *verify.State, i int, op trace.Op) []Diagnostic {
	switch op.Kind {
	case trace.Clwb, trace.CCWB:
		r.pending = append(r.pending, Diagnostic{
			Rule: r.ID(), OpIndex: i, Addr: op.Addr.LineAddr(),
			Message: fmt.Sprintf("%v of %#x never followed by an sfence", op.Kind, op.Addr),
		})
	case trace.Sfence:
		r.pending = r.pending[:0]
	}
	return nil
}

func (r *ruleWritebackFenced) Finish(s *verify.State, n int) []Diagnostic {
	return append([]Diagnostic(nil), r.pending...)
}

// ---------------------------------------------------------------------------
// R3 — counters written back and fenced before a version switch.

// R3 works at counter-group granularity: eight data lines share a
// counter line, and a group dirtied by a plain store stays dirty until a
// counter_cache_writeback and a fence, even if one of its lines is later
// overwritten counter-atomically.
type ruleCounterWriteback struct {
	groups map[mem.Addr]*ctrGroup
	order  []*ctrGroup // first-dirtied order, for deterministic scans
}

// ctrGroup is one counter group's writeback state.
type ctrGroup struct {
	base    mem.Addr
	status  ctrStatus
	dirtyAt int // op index of the plain store that last dirtied it
}

type ctrStatus int

const (
	ctrClean   ctrStatus = iota // no plain store since the last fenced writeback
	ctrDirty                    // a plain store bumped a counter; no writeback since
	ctrPending                  // written back but not yet fenced
)

func (*ruleCounterWriteback) ID() string { return "R3" }
func (*ruleCounterWriteback) Doc() string {
	return "CounterAtomic switch while an earlier store's counter line is not written back and fenced"
}

func (r *ruleCounterWriteback) Check(s *verify.State, i int, op trace.Op) []Diagnostic {
	switch op.Kind {
	case trace.Write:
		if op.CounterAtomic {
			return r.flag(i)
		}
		// A plain store bumps its counter in the volatile counter cache;
		// a CounterAtomic store persists its counter with its data (§4.3)
		// and leaves the group alone.
		base := verify.CounterGroup(op.Addr)
		g := r.groups[base]
		if g == nil {
			g = &ctrGroup{base: base}
			r.groups[base] = g
			r.order = append(r.order, g)
		}
		g.status, g.dirtyAt = ctrDirty, i
	case trace.CCWB:
		// Writes back the counters dirtied so far; a store after the
		// writeback re-dirties the group.
		if g := r.groups[verify.CounterGroup(op.Addr)]; g != nil && g.status == ctrDirty {
			g.status = ctrPending
		}
	case trace.Sfence:
		for _, g := range r.order {
			if g.status == ctrPending {
				g.status = ctrClean
			}
		}
	}
	return nil
}

// flag reports every volatile counter group at the switch at op i.
func (r *ruleCounterWriteback) flag(i int) []Diagnostic {
	var ds []Diagnostic
	for _, g := range r.order {
		if g.status == ctrClean {
			continue
		}
		why := "no counter_cache_writeback issued"
		if g.status == ctrPending {
			why = "counter_cache_writeback issued but not fenced"
		}
		ds = append(ds, Diagnostic{
			Rule: r.ID(), OpIndex: i, Addr: g.base,
			Message: fmt.Sprintf("counter-atomic switch while counter group %#x (dirtied by store at op %d) is volatile: %s",
				g.base, g.dirtyAt, why),
		})
	}
	return ds
}

func (*ruleCounterWriteback) Finish(*verify.State, int) []Diagnostic { return nil }

// ---------------------------------------------------------------------------
// R4 — payload persisted before the version switch flips.

type ruleSwitchAfterPayload struct{}

func (*ruleSwitchAfterPayload) ID() string { return "R4" }
func (*ruleSwitchAfterPayload) Doc() string {
	return "CounterAtomic switch before an earlier store's persist barrier completed"
}

func (r *ruleSwitchAfterPayload) Check(s *verify.State, i int, op trace.Op) []Diagnostic {
	if op.Kind != trace.Write || !op.CounterAtomic {
		return nil
	}
	var ds []Diagnostic
	target := op.Addr.LineAddr()
	s.Lines(func(li verify.Line) {
		// The switch line's own prior contents are superseded by this
		// store; every other unpersisted line is published too early.
		if li.Addr == target || li.StoredAt < 0 || li.DataSafe {
			return
		}
		ds = append(ds, Diagnostic{
			Rule: r.ID(), OpIndex: i, Addr: li.Addr,
			Message: fmt.Sprintf("counter-atomic switch while line %#x (stored at op %d) is not persisted (%s)",
				li.Addr, li.StoredAt, unpersisted(li)),
		})
	})
	return ds
}

func (*ruleSwitchAfterPayload) Finish(*verify.State, int) []Diagnostic { return nil }

// ---------------------------------------------------------------------------
// R5 — no in-place mutation before the log entry is valid and persistent.

// R5's switch is the open transaction's most recent counter-atomic log
// store. Unlike the verifier's log seal, a later commit store to the same
// line does not release it.
type ruleMutateAfterValid struct {
	switchSeen bool
	switchLine mem.Addr
}

func (*ruleMutateAfterValid) ID() string { return "R5" }
func (*ruleMutateAfterValid) Doc() string {
	return "in-place mutation inside a transaction before the log valid switch is persistent"
}

func (r *ruleMutateAfterValid) Check(s *verify.State, i int, op trace.Op) []Diagnostic {
	switch {
	case op.Kind == trace.TxBegin || op.Kind == trace.TxEnd:
		r.switchSeen = false
		return nil
	case op.Kind != trace.Write || !s.InTx():
		return nil
	case op.CounterAtomic:
		if s.IsLog(op.Addr) {
			r.switchSeen, r.switchLine = true, op.Addr.LineAddr()
		}
		return nil
	case !s.KnowsLog() || s.IsLog(op.Addr):
		return nil // building the log entry is the prepare stage, not a mutation
	}
	why := "no counter-atomic log valid switch has occurred"
	if r.switchSeen {
		sw, _ := s.LineAt(r.switchLine)
		if sw.DataSafe {
			return nil
		}
		why = fmt.Sprintf("log valid switch at op %d is not yet persisted (%s)",
			sw.StoredAt, unpersisted(sw))
	}
	return []Diagnostic{{
		Rule: r.ID(), OpIndex: i, Addr: op.Addr.LineAddr(),
		Message: fmt.Sprintf("in-place mutation of line %#x while %s", op.Addr.LineAddr(), why),
	}}
}

func (*ruleMutateAfterValid) Finish(*verify.State, int) []Diagnostic { return nil }
