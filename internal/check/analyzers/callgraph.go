package analyzers

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Syntactic multi-package call graph, the substrate of the
// interprocedural lockorder analyzer. Like the rest of
// this package it works without type information, so call resolution is
// a deliberate over-approximation that errs toward MORE edges:
//
//   - a local identifier call resolves to the same package's function of
//     that name, when one exists;
//   - a pkg.Foo call resolves through the file's imports to a loaded
//     package's function;
//   - a method call x.Foo(...) resolves to EVERY loaded method named Foo
//     — receiver types are unknowable syntactically, so all candidates
//     are assumed reachable (flags rather than misses);
//   - function literals are attributed to their enclosing declaration:
//     a closure's calls count as calls of the function that builds it.
type CallGraph struct {
	Fset *token.FileSet
	// Funcs indexes every loaded declaration by key: "pkg.Name" for
	// functions, "pkg.Recv.Name" for methods.
	Funcs map[string]*FuncInfo
	keys  []string // sorted, for deterministic iteration
	// byMethod maps bare method names to their keys, for the same
	// conservative dispatch the edge builder uses.
	byMethod map[string][]string
}

// FuncInfo is one function declaration in the graph.
type FuncInfo struct {
	Key  string
	Pkg  string // package name (from the package clause)
	Dir  string
	Decl *ast.FuncDecl
	// Calls lists resolved callee keys, sorted and deduplicated.
	Calls []string
}

// Keys returns every function key in sorted order.
func (g *CallGraph) Keys() []string { return g.keys }

// BuildCallGraph parses the given package directories into one shared
// FileSet and links the call edges. Test files are excluded unless
// includeTests is set, mirroring LoadDir.
func BuildCallGraph(dirs []string, includeTests bool) (*CallGraph, error) {
	g := &CallGraph{Fset: token.NewFileSet(), Funcs: map[string]*FuncInfo{},
		byMethod: map[string][]string{}}

	type parsedFile struct {
		file *ast.File
		pkg  string
		dir  string
		// imports maps local import names to loaded package names.
		imports map[string]string
	}
	var parsed []parsedFile
	pkgNames := map[string]bool{}

	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") {
				continue
			}
			if !includeTests && strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(g.Fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			pkgNames[f.Name.Name] = true
			parsed = append(parsed, parsedFile{file: f, pkg: f.Name.Name, dir: dir})
		}
	}

	// Phase 1: declarations.
	byMethod := g.byMethod // bare method name -> method keys
	for i := range parsed {
		pf := &parsed[i]
		pf.imports = map[string]string{}
		for _, imp := range pf.file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			base := path[strings.LastIndex(path, "/")+1:]
			local := base
			if imp.Name != nil {
				local = imp.Name.Name
			}
			pf.imports[local] = base
		}
		for _, d := range pf.file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := pf.pkg + "." + fd.Name.Name
			if recv := recvTypeName(fd); recv != "" {
				key = pf.pkg + "." + recv + "." + fd.Name.Name
				byMethod[fd.Name.Name] = append(byMethod[fd.Name.Name], key)
			}
			g.Funcs[key] = &FuncInfo{Key: key, Pkg: pf.pkg, Dir: pf.dir, Decl: fd}
		}
	}

	// Phase 2: edges.
	for _, pf := range parsed {
		for _, d := range pf.file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := pf.pkg + "." + fd.Name.Name
			if recv := recvTypeName(fd); recv != "" {
				key = pf.pkg + "." + recv + "." + fd.Name.Name
			}
			info := g.Funcs[key]
			callees := map[string]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					if k := pf.pkg + "." + fun.Name; g.Funcs[k] != nil {
						callees[k] = true
					}
				case *ast.SelectorExpr:
					if id, ok := fun.X.(*ast.Ident); ok {
						if p, imported := pf.imports[id.Name]; imported && pkgNames[p] {
							if k := p + "." + fun.Sel.Name; g.Funcs[k] != nil {
								callees[k] = true
								return true
							}
						}
					}
					// Method dispatch: every loaded method of this name.
					for _, k := range byMethod[fun.Sel.Name] {
						callees[k] = true
					}
				}
				return true
			})
			for k := range callees {
				info.Calls = append(info.Calls, k)
			}
			sort.Strings(info.Calls)
		}
	}

	g.keys = make([]string, 0, len(g.Funcs))
	for k := range g.Funcs {
		g.keys = append(g.keys, k)
	}
	sort.Strings(g.keys)
	return g, nil
}

// recvTypeName extracts a method's receiver base type name, unwrapping
// pointers and type parameters.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// recvIdentName returns a method's receiver variable name ("" for
// functions and anonymous receivers).
func recvIdentName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}
