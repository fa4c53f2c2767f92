package analyzers

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// runWith parses one snippet and runs a chosen analyzer set.
func runWith(t *testing.T, src string, as []*Analyzer) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "snippet.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fs, err := RunFiles(fset, []*ast.File{f}, as)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return fs
}

// The persistbad fixture draws exactly its three seeded orderings bugs;
// the fenced variants below them stay clean.
func TestPersistOrderFixture(t *testing.T) {
	dir := filepath.Join("testdata", "src", "persistbad")
	fs, err := RunDir(dir, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		if f.Analyzer != "persistorder" {
			t.Errorf("unexpected %s finding: %+v", f.Analyzer, f)
		}
	}
	if len(fs) != 3 {
		t.Errorf("total findings = %d, want 3: %v", len(fs), fs)
	}
}

// CFG behavior of persistorder, case by case.
func TestPersistOrderSnippets(t *testing.T) {
	const hdr = "package p\n"
	cases := []struct {
		name string
		src  string
		want int
	}{
		{
			name: "clwb then fence",
			src:  hdr + "func f(rt R) { rt.Clwb(0, 64); rt.Fence() }",
			want: 0,
		},
		{
			name: "clwb with no fence at all",
			src:  hdr + "func f(rt R) { rt.Clwb(0, 64) }",
			want: 1,
		},
		{
			name: "early return between clwb and fence",
			src:  hdr + "func f(rt R, ok bool) { rt.Clwb(0, 64); if !ok { return }; rt.Fence() }",
			want: 1,
		},
		{
			name: "fence on one branch only",
			src:  hdr + "func f(rt R, ok bool) { rt.Clwb(0, 64); if ok { rt.Fence() } }",
			want: 1,
		},
		{
			name: "fence on both branches",
			src:  hdr + "func f(rt R, ok bool) { rt.Clwb(0, 64); if ok { rt.Fence() } else { rt.Fence() } }",
			want: 0,
		},
		{
			name: "clwb in loop, fence after loop",
			src:  hdr + "func f(rt R, as []A) { for _, a := range as { rt.Clwb(a, 64) }; rt.Fence() }",
			want: 0,
		},
		{
			name: "break escapes the loop before the fence",
			src:  hdr + "func f(rt R, ok bool) { for { rt.Clwb(0, 64); if ok { break }; rt.Fence() } }",
			want: 1,
		},
		{
			name: "persist barrier orders the clwb",
			src:  hdr + "func f(rt R) { rt.Clwb(0, 64); rt.PersistBarrier(0, 64) }",
			want: 0,
		},
		{
			name: "raw clwb append without fence",
			src:  hdr + "func f(rt R) { rt.tr.Append(trace.Op{Kind: trace.Clwb}) }",
			want: 1,
		},
		{
			name: "raw clwb append then fence",
			src:  hdr + "func f(rt R) { rt.tr.Append(trace.Op{Kind: trace.Clwb}); rt.Fence() }",
			want: 0,
		},
		{
			name: "raw append of a non-clwb op is not an emission",
			src:  hdr + "func f(rt R) { rt.tr.Append(trace.Op{Kind: trace.Sfence}) }",
			want: 0,
		},
		{
			name: "emission inside the Clwb primitive itself is exempt",
			src:  hdr + "func (rt R) Clwb(a A, n int) { rt.tr.Append(trace.Op{Kind: trace.Clwb}) }",
			want: 0,
		},
		{
			name: "ccwb fenced on one branch only",
			src:  hdr + "func f(rt R, ok bool) { rt.CCWB(0, 64); if ok { rt.Fence() } }",
			want: 1,
		},
		{
			name: "early return between ccwb and fence",
			src:  hdr + "func f(rt R, ok bool) { rt.CCWB(0, 64); if !ok { return }; rt.Fence() }",
			want: 1,
		},
		{
			name: "emission inside the CCWB primitive itself is exempt",
			src:  hdr + "func (rt R) CCWB(a A, n int) { rt.tr.Append(trace.Op{Kind: trace.CCWB}); rt.Clwb(a, n) }",
			want: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := runWith(t, tc.src, []*Analyzer{PersistOrder})
			if len(fs) != tc.want {
				t.Errorf("findings = %d, want %d: %v", len(fs), tc.want, fs)
			}
		})
	}
}

// ByName resolves analyzer subsets and rejects unknown names.
func TestByName(t *testing.T) {
	all, err := ByName("all")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(all) = %d analyzers, err %v", len(all), err)
	}
	two, err := ByName("persistorder, rawspacewrite")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName subset = %v, err %v", two, err)
	}
	names := []string{two[0].Name, two[1].Name}
	if strings.Join(names, ",") != "rawspacewrite,persistorder" {
		t.Errorf("subset order = %v, want catalog order", names)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("ByName(nosuch) did not error")
	}
}

// TestByNameFirstUnknown requires the first unknown name in the order
// given to be the one reported, on every call.
func TestByNameFirstUnknown(t *testing.T) {
	for i := 0; i < 50; i++ {
		_, err := ByName("foo,bar,persistorder,baz")
		if err == nil || !strings.Contains(err.Error(), `"foo"`) {
			t.Fatalf("call %d: ByName error = %v, want unknown \"foo\"", i, err)
		}
	}
}
