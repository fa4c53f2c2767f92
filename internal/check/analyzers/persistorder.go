package analyzers

import (
	"go/ast"
	"go/token"
)

// PersistOrder checks that every writeback is ordered: every path from
// a writeback emission — a <x>.Clwb(...) or <x>.CCWB(...) call, or a raw
// trace append of a Clwb op — to function exit must pass an ordering
// point (<x>.Fence() or <x>.PersistBarrier()). The CFG catches a fence
// that only covers one branch, or an early return sneaking out between
// the writeback and its sfence: the unordered clwb may never drain, so
// the line's durability is a race with the crash (§4.2's persist_barrier
// contract), and an unordered counter_cache_writeback loses the second
// half of the §4.3 protocol.
//
// Functions named after the primitives themselves (Clwb, CCWB, Fence,
// PersistBarrier) are exempt: they define the emission, their callers own
// the ordering.
var PersistOrder = &Analyzer{
	Name: "persistorder",
	Doc:  "flags Clwb emissions with a fence-free control-flow path to function exit",
	Run:  runPersistOrder,
}

func runPersistOrder(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			switch fn.Name.Name {
			case "Clwb", "CCWB", "Fence", "PersistBarrier":
				continue
			}
			checkPersistOrder(pass, fn.Body)
		}
	}
	return nil
}

func checkPersistOrder(pass *Pass, body *ast.BlockStmt) {
	entry, exit := buildCFG(body)

	// Collect every node once (the graph is small: one per statement).
	var nodes []*cfgNode
	seen := map[*cfgNode]bool{}
	var collect func(*cfgNode)
	collect = func(n *cfgNode) {
		if seen[n] {
			return
		}
		seen[n] = true
		nodes = append(nodes, n)
		for _, s := range n.succs {
			collect(s)
		}
	}
	collect(entry)

	for _, n := range nodes {
		for _, e := range writebackEmissions(n) {
			if fenceFreePathToExit(n, exit) {
				pass.Report(Diagnostic{
					Pos:     e.pos,
					Message: e.primitive + " emission with a fence-free path to function exit; the writeback may never be ordered",
				})
			}
		}
	}
}

// fenceFreePathToExit reports whether some path from n's successors
// reaches the exit node without passing a fencing statement.
func fenceFreePathToExit(n, exit *cfgNode) bool {
	visited := map[*cfgNode]bool{}
	var dfs func(*cfgNode) bool
	dfs = func(m *cfgNode) bool {
		if m == exit {
			return true
		}
		if visited[m] {
			return false
		}
		visited[m] = true
		if isFenceNode(m) {
			return false
		}
		for _, s := range m.succs {
			if dfs(s) {
				return true
			}
		}
		return false
	}
	for _, s := range n.succs {
		if dfs(s) {
			return true
		}
	}
	return false
}

// isFenceNode reports whether the node's statement establishes an
// ordering point.
func isFenceNode(n *cfgNode) bool {
	fence := false
	inspectParts(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch name := calleeName(call); name {
		case "Fence", "PersistBarrier":
			fence = true
		}
		return true
	})
	return fence
}

// emission is one writeback in a node and the primitive that issued it.
type emission struct {
	pos       token.Pos
	primitive string
}

// writebackEmissions returns the writebacks in the node: <x>.Clwb(...)
// and <x>.CCWB(...) calls, and <x>.Append(trace.Op{Kind: trace.Clwb, ...}).
func writebackEmissions(n *cfgNode) []emission {
	var out []emission
	inspectParts(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch name := calleeName(call); name {
		case "Clwb", "CCWB":
			out = append(out, emission{call.Pos(), name})
		case "Append":
			for _, arg := range call.Args {
				if mentionsClwbKind(arg) {
					out = append(out, emission{call.Pos(), "Clwb"})
					break
				}
			}
		}
		return true
	})
	return out
}

// calleeName extracts the called function or method's bare name.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// mentionsClwbKind reports whether the expression references the Clwb op
// kind (trace.Clwb or a bare Clwb identifier inside a composite).
func mentionsClwbKind(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.SelectorExpr:
			if x.Sel.Name == "Clwb" {
				found = true
			}
			return false
		case *ast.Ident:
			if x.Name == "Clwb" {
				found = true
			}
		}
		return true
	})
	return found
}
