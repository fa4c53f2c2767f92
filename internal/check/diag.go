package check

import (
	"fmt"
	"sort"

	"encnvm/internal/mem"
)

// Diagnostic is one rule violation, anchored to the op that exhibits it.
type Diagnostic struct {
	Rule    string   // "R1".."R5", or "R0" for a malformed stream
	OpIndex int      // trace index of the anchoring op
	Addr    mem.Addr // affected data line or counter-group base (0 if n/a)
	Message string
}

// String renders the diagnostic in a vet-like one-line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("op %d: %s: %s", d.OpIndex, d.Rule, d.Message)
}

// sortDiagnostics orders diagnostics by op index, then rule, then address,
// so output is deterministic regardless of rule evaluation order.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].OpIndex != ds[j].OpIndex {
			return ds[i].OpIndex < ds[j].OpIndex
		}
		if ds[i].Rule != ds[j].Rule {
			return ds[i].Rule < ds[j].Rule
		}
		return ds[i].Addr < ds[j].Addr
	})
}

// ByRule groups diagnostics by rule ID.
func ByRule(ds []Diagnostic) map[string][]Diagnostic {
	out := make(map[string][]Diagnostic)
	for _, d := range ds {
		out[d.Rule] = append(out[d.Rule], d)
	}
	return out
}
