package memctrl

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// The controller's policy decisions are all columns of its engine row;
// the design enum and its predicates must never reappear in this
// package's non-test sources. This pins the refactor: a new design
// becomes a new engine row, not a new branch here.
func TestNoDesignBranchingInController(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		// The config import may only be used for sizing/timing types;
		// any mention of the Design type or its predicate methods is a
		// policy branch leaking back in.
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Design", "Encrypted", "UsesCounterCache", "CoLocatesCounters", "SeparateCounterWrites":
				// Engine columns carry these names too; only flag
				// selections rooted at the config package or at a
				// config value (cfg, mc.cfg, ...).
				var root string
				switch x := sel.X.(type) {
				case *ast.Ident:
					root = x.Name
				case *ast.SelectorExpr:
					root = x.Sel.Name
				}
				if root == "config" || root == "cfg" {
					t.Errorf("%s: %s.%s — design policy must live in internal/machine/engines",
						fset.Position(sel.Pos()), root, sel.Sel.Name)
				}
			}
			return true
		})
	}
}
