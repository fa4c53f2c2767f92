package verify_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"encnvm/internal/check"
	"encnvm/internal/check/enginecheck"
	"encnvm/internal/check/prune"
	"encnvm/internal/check/verify"
	"encnvm/internal/config"
	"encnvm/internal/crash"
	"encnvm/internal/machine/engines"
	"encnvm/internal/persist"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// staticGolden holds one line per corpus trace: its name, its op count,
// and for each static analysis (linter, verifier, pruner) a count plus a
// short SHA-256 of the analysis's rendered output. It was recorded
// before the linter moved onto the verifier's state and the pruner
// stopped capturing per-class certificates, so it pins that neither
// change altered an output.
var staticGolden = filepath.Join("testdata", "static.golden")

type corpusTrace struct {
	name string
	tr   *trace.Trace
}

// staticCorpus builds every extended workload x {undo, redo} x
// {annotated, legacy} at two static-suite sizes (16 items, 24 ops,
// seeds 2 and 3) and at xvParams, plus every catalog mutant of the
// annotated traces.
func staticCorpus(t *testing.T) []corpusTrace {
	t.Helper()
	sizes := []struct {
		tag string
		p   workloads.Params
	}{
		{"s2", workloads.Params{Seed: 2, Items: 16, Ops: 24}.WithDefaults()},
		{"s3", workloads.Params{Seed: 3, Items: 16, Ops: 24}.WithDefaults()},
		{"xv", xvParams()},
	}
	var out []corpusTrace
	for _, sz := range sizes {
		for _, w := range workloads.Extended() {
			for _, mode := range []persist.TxMode{persist.Undo, persist.Redo} {
				for _, legacy := range []bool{false, true} {
					p := sz.p
					p.TxMode, p.Legacy = mode, legacy
					tr := crash.BuildTraces(w, p, 1)[0]
					kind := "annotated"
					if legacy {
						kind = "legacy"
					}
					name := fmt.Sprintf("%s/%s/%s/%s", sz.tag, w.Name(), mode, kind)
					out = append(out, corpusTrace{name, tr})
					if legacy {
						continue
					}
					gen := check.TxMutants
					if _, ok := w.(*workloads.LinkedList); ok {
						gen = check.ListMutants
					}
					ms, err := gen(tr)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for _, m := range ms {
						out = append(out, corpusTrace{name + "/" + m.Name, m.Trace})
					}
				}
			}
		}
	}
	return out
}

type namedModel struct {
	name  string
	model *verify.Model
}

// corpusModels is the default model followed by every registry
// engine's model.
func corpusModels() []namedModel {
	ms := []namedModel{{"default", nil}}
	for _, n := range engines.Names() {
		e, _ := engines.ByName(n)
		ms = append(ms, namedModel{n, enginecheck.ModelFor(e, config.Default(e.Design()))})
	}
	return ms
}

func shortHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return fmt.Sprintf("%x", sum[:8])
}

// renderStatic runs the three analyses over one trace and returns its
// golden line.
func renderStatic(t *testing.T, c corpusTrace, models []namedModel) string {
	arenas := []persist.Arena{xvArena()}
	var b strings.Builder

	ds := check.Check(c.tr, check.Options{Arenas: arenas})
	for _, d := range ds {
		fmt.Fprintf(&b, "%s addr=%#x\n", d, d.Addr)
	}
	lint := fmt.Sprintf("lint=%d:%s", len(ds), shortHash(b.String()))

	b.Reset()
	violations := 0
	for _, m := range models {
		res := verify.Verify(c.tr, verify.Options{Arenas: arenas, Model: m.model})
		fmt.Fprintf(&b, "[%s] epochs=%d classes=%d\n", m.name, res.Epochs, res.Classes)
		for _, v := range res.Violations {
			sched, err := json.Marshal(v.Schedule)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s addr=%#x %s\n", v, v.Addr, sched)
		}
		violations += len(res.Violations)
	}
	ver := fmt.Sprintf("verify=%d:%s", violations, shortHash(b.String()))

	b.Reset()
	pr := "prune=err"
	if p, err := prune.Compute(c.tr, prune.Options{Arenas: arenas}); err != nil {
		pr += ":" + shortHash(err.Error())
	} else {
		for _, cl := range p.Classes {
			fmt.Fprintf(&b, "%d op=%d %s [%d,%d) rep=%d\n",
				cl.Index, cl.OpIndex, cl.Boundary, cl.Gaps[0], cl.Gaps[1], cl.Representative)
		}
		pr = fmt.Sprintf("prune=%d:%s", len(p.Classes), shortHash(b.String()))
	}
	return fmt.Sprintf("%s ops=%d %s %s %s\n", c.name, c.tr.Len(), lint, ver, pr)
}

// TestStaticCorpusGolden pins the linter's diagnostics, the verifier's
// epochs, classes, violations and schedules under every engine model,
// and the pruner's class tiling over the whole corpus, byte for byte.
func TestStaticCorpusGolden(t *testing.T) {
	models := corpusModels()
	var b strings.Builder
	for _, c := range staticCorpus(t) {
		b.WriteString(renderStatic(t, c, models))
	}
	got := b.String()
	want, err := os.ReadFile(staticGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("static analyses differ from %s at line %d:\n got: %s\nwant: %s", staticGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("static analyses differ from %s: %d lines, want %d", staticGolden, len(gl), len(wl))
	}
}
