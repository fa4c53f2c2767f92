package verify

import (
	"encnvm/internal/mem"
	"encnvm/internal/persist"
	"encnvm/internal/trace"
)

// State is the per-line persistence state machine the static trace
// analyses share: the verifier's invariants V1–V5 and the linter's rules
// R1–R5 (internal/check) read it before each op, and Apply then advances
// it by that op. For every line touched by a store or a clwb it holds
// the persist-set facts of the latest store's data, counter and tree
// path; it also tracks the open transaction and its log seal.
type State struct {
	model  Model
	arenas []persist.Arena

	lines     map[mem.Addr]*lineState
	lineOrder []mem.Addr // first-touch order, for deterministic scans
	groups    map[mem.Addr][]mem.Addr

	inTx     bool
	sealSeen bool     // a CounterAtomic log store occurred in the open tx
	sealLine mem.Addr // its line
	sealAt   int
}

// Line is the data half of one tracked line's persist-set facts.
type Line struct {
	Addr      mem.Addr
	StoredAt  int  // op index of the latest store (-1: never stored)
	StoreInTx bool // latest store happened inside the open transaction
	DataWBAt  int  // in-flight clwb for the latest content (-1: none)
	DataSafe  bool // NVM definitely holds the latest content
}

// lineState is the per-line persist-set summary the invariants observe.
type lineState struct {
	Line
	ca bool // latest store was engine-effectively CounterAtomic

	ctrWBAt int  // in-flight counter writeback covering the latest bump (-1: none)
	ctrSafe bool // NVM counter definitely matches the latest content

	treeWBAt int  // in-flight tree-path writeback for the latest bump (-1: none)
	treeSafe bool // NVM ancestor tree nodes definitely match the latest content
}

// safe reports the line is definitely readable-as-latest after any crash.
func (l *lineState) safe() bool { return l.DataSafe && l.ctrSafe }

// NewState returns the state before any op, under opts' log regions and
// engine model.
func NewState(opts Options) *State {
	s := &State{
		arenas: opts.Arenas,
		lines:  make(map[mem.Addr]*lineState),
		groups: make(map[mem.Addr][]mem.Addr),
	}
	if opts.Model != nil {
		// The zero Model IS the default semantics, so copying an explicit
		// &Model{} here is identical to leaving s.model zero — nil and
		// zero Options.Model cannot diverge.
		s.model = *opts.Model
	}
	return s
}

// OpensClass reports whether an op of kind k opens a new crash-point
// equivalence class. Only stores, writebacks and fences can change the
// reachable persisted-image set; reads, compute and transaction markers
// leave every crash point after them in the class before.
func OpensClass(k trace.Kind) bool {
	switch k {
	case trace.Write, trace.Clwb, trace.CCWB, trace.Sfence:
		return true
	}
	return false
}

// CounterGroup returns the counter-line group base covering addr,
// matching the persist runtime's coalescing (mem.CountersPerLine data
// lines per counter line).
func CounterGroup(addr mem.Addr) mem.Addr {
	return addr.LineAddr() &^ (mem.CountersPerLine*mem.LineBytes - 1)
}

// InTx reports whether a transaction is open.
func (s *State) InTx() bool { return s.inTx }

// KnowsLog reports whether log regions are known (Options.Arenas set).
func (s *State) KnowsLog() bool { return len(s.arenas) > 0 }

// IsLog reports whether addr falls in a known log region.
func (s *State) IsLog(a mem.Addr) bool {
	for _, ar := range s.arenas {
		if a >= ar.LogBase() && a < ar.HeapBase() {
			return true
		}
	}
	return false
}

// Lines visits every tracked line in first-touch order.
func (s *State) Lines(fn func(Line)) {
	for _, a := range s.lineOrder {
		fn(s.lines[a].Line)
	}
}

// LineAt returns the tracked line covering addr, if any.
func (s *State) LineAt(addr mem.Addr) (Line, bool) {
	ls, ok := s.lines[addr.LineAddr()]
	if !ok {
		return Line{}, false
	}
	return ls.Line, true
}

func (s *State) line(a mem.Addr) *lineState {
	a = a.LineAddr()
	ls, ok := s.lines[a]
	if !ok {
		ls = &lineState{Line: Line{Addr: a, StoredAt: -1, DataWBAt: -1}, ctrWBAt: -1, treeWBAt: -1}
		s.lines[a] = ls
		s.lineOrder = append(s.lineOrder, a)
		g := CounterGroup(a)
		s.groups[g] = append(s.groups[g], a)
	}
	return ls
}

// Apply advances the state by op i. It checks nothing: every analysis
// reads the state the op finds, then applies the op.
func (s *State) Apply(i int, op trace.Op) {
	switch op.Kind {
	case trace.Write:
		s.applyWrite(i, op)
	case trace.Clwb:
		ls := s.line(op.Addr)
		if ls.StoredAt >= 0 && !ls.DataSafe && ls.DataWBAt < 0 {
			ls.DataWBAt = i
			if ls.ca {
				// A CounterAtomic writeback carries its counter — and, on
				// a tree-protected engine whose metadata travels with the
				// counter write, the ancestor tree path too.
				ls.ctrWBAt = i
				if s.model.TreeProtected && s.model.TreePathWithCounter {
					ls.treeWBAt = i
				}
			}
		}
	case trace.CCWB:
		if s.model.CCWBUnordered {
			// The writeback emits traffic the fence never waits for: no
			// counter becomes definitely persistent through it.
			break
		}
		for _, a := range s.groups[CounterGroup(op.Addr)] {
			ls := s.lines[a]
			if ls.StoredAt >= 0 && !ls.ca && !ls.ctrSafe && ls.ctrWBAt < 0 {
				ls.ctrWBAt = i
				if s.model.TreeProtected && s.model.TreePathWithCounter {
					ls.treeWBAt = i
				}
			}
		}
	case trace.Sfence:
		for _, a := range s.lineOrder {
			ls := s.lines[a]
			if ls.DataWBAt >= 0 {
				ls.DataSafe = true
				ls.DataWBAt = -1
			}
			if ls.ctrWBAt >= 0 {
				ls.ctrSafe = true
				ls.ctrWBAt = -1
			}
			if ls.treeWBAt >= 0 {
				if !s.model.TreePathUnordered {
					ls.treeSafe = true
				}
				ls.treeWBAt = -1
			}
		}
	case trace.TxBegin:
		s.inTx = true
		s.sealSeen = false
	case trace.TxEnd:
		s.inTx = false
		s.sealSeen = false
		for _, a := range s.lineOrder {
			s.lines[a].StoreInTx = false
		}
	}
}

// applyWrite updates the persist-set facts for a store. The line's
// atomicity flag is the ENGINE-effective one (a CounterFree engine makes
// every counter exactly as safe as its data); seal detection keys on the
// raw software annotation, which is the protocol structure regardless of
// how the engine persists it.
func (s *State) applyWrite(i int, op trace.Op) {
	ls := s.line(op.Addr)
	ls.StoredAt = i
	ls.ca = s.model.atomic(op.CounterAtomic)
	ls.StoreInTx = s.inTx
	// For an atomic line the counter is exactly as safe as the data,
	// tracked through the data writeback; for a plain store the counter
	// bump sits in the volatile counter cache and persists independently.
	ls.DataSafe = false
	ls.DataWBAt = -1
	ls.ctrSafe = false
	ls.ctrWBAt = -1
	ls.treeSafe = false
	ls.treeWBAt = -1
	if op.CounterAtomic && s.inTx && s.IsLog(op.Addr) {
		if s.sealSeen && op.Addr.LineAddr() == s.sealLine {
			// The commit record releases the seal.
			s.sealSeen = false
		} else {
			s.sealSeen = true
			s.sealLine = op.Addr.LineAddr()
			s.sealAt = i
		}
	}
}

// sealDurable reports whether the open transaction's seal is definitely
// persisted (valid flag readable after every crash).
func (s *State) sealDurable() bool {
	if !s.sealSeen {
		return false
	}
	return s.lines[s.sealLine].safe()
}
