// Package analyzers hosts persistcheck's source-level checks: vet-style
// analyzers that flag Go code whose *shape* can violate the persistency
// protocol, complementing internal/check's trace linter (which needs a
// recorded execution to inspect).
//
// The Analyzer/Pass/Diagnostic trio deliberately mirrors the core of
// golang.org/x/tools/go/analysis — this build environment is offline, so
// the dependency cannot be pulled; keeping the upstream field shapes
// means each check's Run function ports to a real multichecker unchanged
// once x/tools is available. Only the syntactic subset is provided: no
// type information, no Facts, no SuggestedFixes.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Analyzer describes one source check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, vet-style.
	Name string
	// Doc is the one-line description shown by persistcheck -list.
	Doc string
	// Run performs the check over one package's files, reporting
	// findings through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one package's parsed source through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// Dir is the package directory being analyzed.
	Dir string
	// Report records one finding.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a resolved diagnostic, ready to print.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// All returns the shipped analyzers: the two protocol-shape checks from
// the original suite, the CFG-based persist-ordering check, and the
// determinism suite guarding the simulator's byte-reproducibility.
func All() []*Analyzer {
	return []*Analyzer{
		RawSpaceWrite, CCWBFence, PersistOrder,
		WallClock, UnseededRand, MapRange,
	}
}

// ByName resolves a comma-separated analyzer list ("" or "all" selects
// every analyzer), preserving catalog order. Of several unknown names
// it reports the first in the order given.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" || names == "all" {
		return All(), nil
	}
	want := map[string]bool{}
	for _, n := range strings.Split(names, ",") {
		want[strings.TrimSpace(n)] = true
	}
	var out []*Analyzer
	for _, a := range All() {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	for _, n := range strings.Split(names, ",") {
		if n = strings.TrimSpace(n); want[n] {
			return nil, fmt.Errorf("analyzers: unknown analyzer %q", n)
		}
	}
	return out, nil
}
