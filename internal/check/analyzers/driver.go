package analyzers

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadDir parses one directory's non-test Go files. Tests legitimately
// reach around the runtime (e.g. corrupting the image to exercise
// validators), and vet-style checks on them would drown real findings.
func loadDir(dir string) (*token.FileSet, []*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, fmt.Errorf("analyzers: %w", err)
		}
		files = append(files, f)
	}
	return fset, files, nil
}

// RunDir runs the analyzers over one package directory and returns the
// findings sorted by position.
func RunDir(dir string, as []*Analyzer) ([]Finding, error) {
	fset, files, err := loadDir(dir)
	if err != nil {
		return nil, err
	}
	return RunFiles(fset, files, as)
}

// RunFiles runs the analyzers over already-parsed files.
func RunFiles(fset *token.FileSet, files []*ast.File, as []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, a := range as {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Report: func(d Diagnostic) {
				findings = append(findings, Finding{
					Analyzer: a.Name,
					Pos:      fset.Position(d.Pos),
					Message:  d.Message,
				})
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzers: %s: %w", a.Name, err)
		}
	}
	sortFindings(findings)
	return findings, nil
}

// sortFindings orders findings by position, then message.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Message < findings[j].Message
	})
}

// Walk returns root plus every package directory below it that contains
// Go files, skipping testdata, hidden directories, and .git. Roots that
// are themselves testdata directories are kept — pointing the checker at
// a fixture explicitly should work.
func Walk(root string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == ".git" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") {
			dir := filepath.Dir(path)
			if !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}
