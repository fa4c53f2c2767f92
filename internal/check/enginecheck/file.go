package enginecheck

import (
	"encoding/json"
	"fmt"
	"os"

	"encnvm/internal/check/verify"
	"encnvm/internal/mem"
	"encnvm/internal/persist"
	"encnvm/internal/trace"
)

// OpRecord is one abstract trace op in a counterexample file. Line
// contents are irrelevant to the verifier, so only the shape survives.
type OpRecord struct {
	Kind   string `json:"kind"`
	Addr   uint64 `json:"addr,omitempty"`
	CA     bool   `json:"ca,omitempty"`
	Cycles uint32 `json:"cycles,omitempty"`
}

// ArenaRecord serializes one arena for log classification at replay.
type ArenaRecord struct {
	Base uint64 `json:"base"`
	Size uint64 `json:"size"`
}

// ModelRecord serializes a verify.Model. AtomicWrite is a bool→bool
// function, so sampling it at both inputs captures it exactly.
type ModelRecord struct {
	AtomicAnnotated     bool `json:"atomicAnnotated"`
	AtomicPlain         bool `json:"atomicPlain"`
	CounterFree         bool `json:"counterFree"`
	CCWBUnordered       bool `json:"ccwbUnordered"`
	TreeProtected       bool `json:"treeProtected,omitempty"`
	TreePathWithCounter bool `json:"treePathWithCounter,omitempty"`
	TreePathUnordered   bool `json:"treePathUnordered,omitempty"`
}

// Model reconstructs the verifier model.
func (m ModelRecord) Model() *verify.Model {
	annotated, plain := m.AtomicAnnotated, m.AtomicPlain
	return &verify.Model{
		AtomicWrite: func(a bool) bool {
			if a {
				return annotated
			}
			return plain
		},
		CounterFree:         m.CounterFree,
		CCWBUnordered:       m.CCWBUnordered,
		TreeProtected:       m.TreeProtected,
		TreePathWithCounter: m.TreePathWithCounter,
		TreePathUnordered:   m.TreePathUnordered,
	}
}

// File is the on-disk form of an enginecheck counterexample: the engine
// and rule, the full abstract trace with its arena and persistence
// model, and — for V-rule findings — the verifier's crash schedule.
// Replay re-verifies the embedded trace under the embedded model and
// confirms the violation is still there, so a counterexample stays
// checkable without rebuilding the engine that produced it.
type File struct {
	Engine   string           `json:"engine"`
	Rule     string           `json:"rule"`
	Program  string           `json:"program,omitempty"`
	Message  string           `json:"message"`
	Ops      []OpRecord       `json:"ops,omitempty"`
	Arenas   []ArenaRecord    `json:"arenas,omitempty"`
	Model    ModelRecord      `json:"model"`
	Schedule *verify.Schedule `json:"schedule,omitempty"`
}

// kindByName inverts trace.Kind.String over the defined kinds.
func kindByName(name string) (trace.Kind, error) {
	for k := trace.Read; k <= trace.TxEnd; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("enginecheck: unknown op kind %q", name)
}

// NewFile packages one finding of rep as a counterexample file. Table
// and recovery findings (no violation) carry no trace; V-rule findings
// embed the program's trace, arena and model.
func NewFile(e string, f Finding, model *verify.Model) *File {
	out := &File{Engine: e, Rule: f.Rule, Program: f.Program, Message: f.Message}
	if model != nil {
		out.Model = ModelRecord{
			AtomicAnnotated:     model.AtomicWrite == nil || model.AtomicWrite(true),
			AtomicPlain:         model.AtomicWrite != nil && model.AtomicWrite(false),
			CounterFree:         model.CounterFree,
			CCWBUnordered:       model.CCWBUnordered,
			TreeProtected:       model.TreeProtected,
			TreePathWithCounter: model.TreePathWithCounter,
			TreePathUnordered:   model.TreePathUnordered,
		}
	}
	if f.Violation == nil {
		return out
	}
	out.Schedule = f.Violation.Schedule
	if p, ok := programByName(f.Program); ok {
		for i := 0; i < p.Trace.Len(); i++ {
			op := p.Trace.At(i)
			out.Ops = append(out.Ops, OpRecord{
				Kind: op.Kind.String(), Addr: uint64(op.Addr),
				CA: op.CounterAtomic, Cycles: op.Cycles,
			})
		}
		for _, a := range p.Arenas {
			out.Arenas = append(out.Arenas, ArenaRecord{Base: uint64(a.Base), Size: a.Size})
		}
	}
	return out
}

// WriteFile marshals f as indented JSON.
func (f *File) WriteFile(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile loads a counterexample file.
func ReadFile(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Replay re-runs the verifier over the file's embedded trace and model
// and reports whether the recorded violation reproduces: same invariant
// at the same op index. Files without an embedded trace (table and
// recovery rules) are self-evident from the policy answers in the
// message; Replay reports an error for them.
func (f *File) Replay() error {
	if len(f.Ops) == 0 {
		return fmt.Errorf("enginecheck: counterexample for %s has no abstract trace (table/recovery rule %s is checked from the policy answers, not a schedule)", f.Engine, f.Rule)
	}
	tr := &trace.Trace{}
	for _, r := range f.Ops {
		k, err := kindByName(r.Kind)
		if err != nil {
			return err
		}
		tr.Append(trace.Op{Kind: k, Addr: mem.Addr(r.Addr), CounterAtomic: r.CA, Cycles: r.Cycles})
	}
	arenas := make([]persist.Arena, 0, len(f.Arenas))
	for _, a := range f.Arenas {
		arenas = append(arenas, persist.Arena{Base: mem.Addr(a.Base), Size: a.Size})
	}
	res := verify.Verify(tr, verify.Options{Arenas: arenas, Model: f.Model.Model()})
	want := -1
	if f.Schedule != nil {
		want = f.Schedule.CrashOp
	}
	for _, v := range res.Violations {
		if v.Inv != f.Rule {
			continue
		}
		if want < 0 || (v.Schedule != nil && v.Schedule.CrashOp == want) {
			return nil
		}
	}
	return fmt.Errorf("enginecheck: replay of %s/%s did not reproduce %s (got %d violations)",
		f.Engine, f.Program, f.Rule, len(res.Violations))
}
