package analyzers

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// runSnippet parses one source snippet and returns the findings.
func runSnippet(t *testing.T, src string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "snippet.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fs, err := RunFiles(fset, []*ast.File{f}, All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return fs
}

// Source-level mutation table: each seeded snippet either violates one
// analyzer (want names it) or is a fixed/clean variant (want empty).
func TestSnippetTable(t *testing.T) {
	const hdr = "package p\n"
	cases := []struct {
		name string
		src  string
		want []string // analyzer names, in position order
	}{
		{
			name: "raw space write",
			src:  hdr + "func f(rt R) { rt.Space().WriteUint64(0, 1) }",
			want: []string{"rawspacewrite"},
		},
		{
			name: "raw space write, bytes variant",
			src:  hdr + "func f(rt R) { rt.Space().WriteBytes(0, nil) }",
			want: []string{"rawspacewrite"},
		},
		{
			name: "raw space read is fine",
			src:  hdr + "func f(rt R) { _ = rt.Space().ReadUint64(0) }",
			want: nil,
		},
		{
			name: "write through a space-typed variable is not Space()",
			src:  hdr + "func f(s S) { s.WriteUint64(0, 1) }",
			want: nil,
		},
		{
			name: "chained receiver still flagged",
			src:  hdr + "func f(sys Sys) { sys.RT().Space().WriteLine(0, l) }",
			want: []string{"rawspacewrite"},
		},
		{
			name: "ccwb with no fence",
			src:  hdr + "func f(rt R) { rt.CCWB(0, 64) }",
			want: []string{"persistorder"},
		},
		{
			name: "ccwb then fence is clean",
			src:  hdr + "func f(rt R) { rt.CCWB(0, 64); rt.Fence() }",
			want: nil,
		},
		{
			name: "fence before ccwb does not order it",
			src:  hdr + "func f(rt R) { rt.Fence(); rt.CCWB(0, 64) }",
			want: []string{"persistorder"},
		},
		{
			name: "ccwb in loop, fence after loop is clean",
			src:  hdr + "func f(rt R) { for i := 0; i < 4; i++ { rt.CCWB(i, 64) }; rt.Fence() }",
			want: nil,
		},
		{
			name: "persist barrier orders a ccwb",
			src:  hdr + "func f(rt R) { rt.CCWB(0, 64); rt.PersistBarrier(0, 64) }",
			want: nil,
		},
		{
			name: "second ccwb after the only fence",
			src:  hdr + "func f(rt R) { rt.CCWB(0, 64); rt.Fence(); rt.CCWB(64, 64) }",
			want: []string{"persistorder"},
		},
		{
			name: "unfenced ccwb in one function, fence in another",
			src:  hdr + "func f(rt R) { rt.CCWB(0, 64) }\nfunc g(rt R) { rt.Fence() }",
			want: []string{"persistorder"},
		},
		{
			name: "both violations in one function",
			src:  hdr + "func f(rt R) { rt.Space().WriteUint64(0, 1); rt.CCWB(0, 64) }",
			want: []string{"rawspacewrite", "persistorder"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := runSnippet(t, tc.src)
			var got []string
			for _, f := range fs {
				got = append(got, f.Analyzer)
			}
			if strings.Join(got, ",") != strings.Join(tc.want, ",") {
				t.Errorf("findings = %v, want %v (%v)", got, tc.want, fs)
			}
		})
	}
}

// The seeded fixture must draw exactly its marked findings.
func TestSeededFixture(t *testing.T) {
	dir := filepath.Join("testdata", "src", "badworkload")
	fs, err := RunDir(dir, All())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"rawspacewrite": 1, "persistorder": 2}
	got := map[string]int{}
	for _, f := range fs {
		got[f.Analyzer]++
		if f.Analyzer == "persistorder" && !strings.HasPrefix(f.Message, "CCWB emission") {
			t.Errorf("persistorder message %q does not name the CCWB primitive", f.Message)
		}
	}
	for a, n := range want {
		if got[a] != n {
			t.Errorf("%s: %d findings, want %d: %v", a, got[a], n, fs)
		}
	}
	if len(fs) != 3 {
		t.Errorf("total findings = %d, want 3: %v", len(fs), fs)
	}
}

// The repository's own non-test source must be clean — the same gate
// cmd/persistcheck enforces in CI.
func TestRepositoryClean(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	dirs, err := Walk(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 20 {
		t.Fatalf("walk found only %d package dirs — wrong root?", len(dirs))
	}
	for _, dir := range dirs {
		fs, err := RunDir(dir, All())
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, f := range fs {
			t.Errorf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
		}
	}
}
