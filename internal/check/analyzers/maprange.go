package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// MapRange flags `range` loops over maps whose iteration order leaks
// into simulated state or output: Go randomizes map order per run, so
// any observable consumer of the order breaks byte-determinism. The
// goldens catch such a leak in the simulation packages; this check also
// covers the CLI outputs no golden or cmp gate reads.
//
// The check is deliberately deny-list shaped. Ranging over a map is fine
// when the body is order-insensitive — aggregation (`sum += v`), filling
// another map, taking a guarded max, or collecting keys into a slice
// that is sorted before use. It is flagged only when the body provably
// observes the order:
//
//   - it writes output (Print*/Fprint*/Encode* calls),
//   - it sends on a channel,
//   - it appends to a slice that is never passed to sort.* afterwards.
//
// Maps are identified syntactically (no type checker): locals assigned
// from make(map[...]) or a map composite literal, var decls and
// parameters with an explicit map type, package-level map vars, and
// selector expressions whose field name is declared with a map type in
// some struct in the file.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc:  "flags map iteration whose order leaks into output or unsorted state",
	Run:  runMapRange,
}

func runMapRange(pass *Pass) error {
	for _, f := range pass.Files {
		fields := mapFieldNames(f)
		pkgMaps := packageMapVars(f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			maps := localMapNames(fn, pkgMaps)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok || !isProvableMap(rs.X, maps, fields) {
					return true
				}
				checkMapRangeBody(pass, fn, rs)
				return true
			})
		}
	}
	return nil
}

// isProvableMap reports whether the ranged expression is syntactically
// known to be a map.
func isProvableMap(x ast.Expr, maps map[string]bool, fields map[string]bool) bool {
	switch x := x.(type) {
	case *ast.Ident:
		return maps[x.Name]
	case *ast.SelectorExpr:
		return fields[x.Sel.Name]
	}
	return false
}

// checkMapRangeBody applies the deny rules to one map-range body.
func checkMapRangeBody(pass *Pass, fn *ast.FuncDecl, rs *ast.RangeStmt) {
	var appended []string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Report(Diagnostic{
				Pos:     n.Pos(),
				Message: "channel send inside map iteration; receive order varies per run",
			})
		case *ast.CallExpr:
			if name := calleeName(n); isOutputFunc(name) {
				pass.Report(Diagnostic{
					Pos:     n.Pos(),
					Message: fmt.Sprintf("%s inside map iteration; output order varies per run — sort the keys first", name),
				})
			}
		case *ast.AssignStmt:
			if name := appendTarget(n); name != "" {
				appended = append(appended, name)
			}
		}
		return true
	})
	for _, slice := range appended {
		if !sortedAfter(fn.Body, rs.End(), slice) {
			pass.Report(Diagnostic{
				Pos:     rs.Pos(),
				Message: fmt.Sprintf("map iteration order leaks into slice %q; sort it before use", slice),
			})
		}
	}
}

// isOutputFunc reports whether a called name emits ordered output.
// Write* is deliberately absent: keyed stores like space.WriteLine(addr,
// ...) are random-access and order-insensitive, and syntax alone cannot
// tell them apart from stream writes.
func isOutputFunc(name string) bool {
	for _, prefix := range []string{"Print", "Fprint", "Encode"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// appendTarget returns the name of the slice in `xs = append(xs, ...)`
// (or xs := / xs +=-style variants with a plain identifier target), or
// "".
func appendTarget(as *ast.AssignStmt) string {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return ""
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return ""
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return ""
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
		return ""
	}
	return lhs.Name
}

// sortedAfter reports whether some sort.* call after pos mentions name.
func sortedAfter(body *ast.BlockStmt, pos token.Pos, name string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "sort" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok && id.Name == name {
					found = true
				}
				return true
			})
		}
		return true
	})
	return found
}

// isMapExpr reports whether the expression syntactically produces a map:
// a make(map[...]) call or a map composite literal.
func isMapExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) > 0 {
			_, isMap := e.Args[0].(*ast.MapType)
			return isMap
		}
	case *ast.CompositeLit:
		_, isMap := e.Type.(*ast.MapType)
		return isMap
	}
	return false
}

// localMapNames collects identifiers provably map-typed inside fn:
// package-level map vars, map-typed parameters and receivers, and locals
// assigned from map expressions or declared with a map type.
func localMapNames(fn *ast.FuncDecl, pkgMaps map[string]bool) map[string]bool {
	maps := make(map[string]bool, len(pkgMaps))
	for k := range pkgMaps {
		maps[k] = true
	}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if _, ok := field.Type.(*ast.MapType); !ok {
				continue
			}
			for _, name := range field.Names {
				maps[name.Name] = true
			}
		}
	}
	addFields(fn.Recv)
	if fn.Type.Params != nil {
		addFields(fn.Type.Params)
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) || !isMapExpr(rhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					maps[id.Name] = true
				}
			}
		case *ast.ValueSpec:
			declared := false
			if _, ok := n.Type.(*ast.MapType); ok {
				declared = true
			}
			for i, name := range n.Names {
				if declared || (i < len(n.Values) && isMapExpr(n.Values[i])) {
					maps[name.Name] = true
				}
			}
		}
		return true
	})
	return maps
}

// packageMapVars collects package-level var names with a map type or a
// map initializer.
func packageMapVars(f *ast.File) map[string]bool {
	maps := map[string]bool{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			declared := false
			if _, ok := vs.Type.(*ast.MapType); ok {
				declared = true
			}
			for i, name := range vs.Names {
				if declared || (i < len(vs.Values) && isMapExpr(vs.Values[i])) {
					maps[name.Name] = true
				}
			}
		}
	}
	return maps
}

// mapFieldNames collects struct field names declared with a map type
// anywhere in the file, so `range x.field` can be recognized.
func mapFieldNames(f *ast.File) map[string]bool {
	fields := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			if _, ok := field.Type.(*ast.MapType); !ok {
				continue
			}
			for _, name := range field.Names {
				fields[name.Name] = true
			}
		}
		return true
	})
	return fields
}
