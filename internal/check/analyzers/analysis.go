// Package analyzers hosts persistcheck's source-level checks: vet-style
// analyzers for what only the source shows, complementing the checks
// that judge executed runs (internal/check's trace linter, the goldens,
// the race detector). rawspacewrite flags stores that bypass the trace,
// which no runtime check can see; persistorder flags writebacks that a
// control-flow path leaves unordered, in branches no generated trace
// exercises. Map order leaking into output is left to the goldens, which
// every command's test reads 16 times per invocation (internal/clitest).
//
// The Analyzer/Pass/Diagnostic trio deliberately mirrors the core of
// golang.org/x/tools/go/analysis, so each check's Run function ports to a
// real multichecker unchanged; the module is stdlib-only, so only the
// syntactic subset is provided: no type information, no Facts, no
// SuggestedFixes.
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

// All returns the shipped analyzers: the raw-image write check and the
// CFG-based persist-ordering check.
func All() []*Analyzer {
	return []*Analyzer{RawSpaceWrite, PersistOrder}
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
