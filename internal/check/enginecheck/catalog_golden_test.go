package enginecheck

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"encnvm/internal/config"
	"encnvm/internal/machine/engines"
)

// catalogGolden holds, for every builtin engine and every seeded mutant,
// its verifier model and every Check finding with its schedule. It was
// recorded while the mutants were still a second implementation of the
// engine interface, so it pins that rebuilding them as rows of the one
// engine table changed no model and no finding.
var catalogGolden = filepath.Join("testdata", "catalog.golden")

// renderCatalog renders the golden: one header line per engine (name,
// sampled model, program count) and one line per finding.
func renderCatalog(t *testing.T) string {
	t.Helper()
	var es []engines.Engine
	for _, n := range engines.Names() {
		e, err := engines.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		es = append(es, e)
	}
	for _, m := range Mutants() {
		es = append(es, m.Engine)
	}
	var b strings.Builder
	for _, e := range es {
		model := NewFile(e.Name, Finding{}, ModelFor(e, config.Default(e.Design))).Model
		mj, err := json.Marshal(model)
		if err != nil {
			t.Fatal(err)
		}
		rep := Check(e, nil)
		fmt.Fprintf(&b, "%s model=%s programs=%d findings=%d\n", e.Name, mj, rep.Programs, len(rep.Findings))
		for _, f := range rep.Findings {
			sched := []byte("-")
			if f.Violation != nil {
				if sched, err = json.Marshal(f.Violation.Schedule); err != nil {
					t.Fatal(err)
				}
			}
			fmt.Fprintf(&b, "  %s [%s] %s %s\n", f.Rule, f.Program, f.Message, sched)
		}
	}
	return b.String()
}

// TestCatalogGolden pins every builtin's and every mutant's model and
// findings byte for byte.
func TestCatalogGolden(t *testing.T) {
	got := renderCatalog(t)
	want, err := os.ReadFile(catalogGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("catalog differs from %s at line %d:\n got: %s\nwant: %s", catalogGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("catalog differs from %s: %d lines, want %d", catalogGolden, len(gl), len(wl))
	}
}
