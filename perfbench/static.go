package main

import (
	"fmt"
	"time"

	"encnvm/internal/check"
	"encnvm/internal/check/prune"
	"encnvm/internal/check/verify"
	"encnvm/internal/crash"
	"encnvm/internal/persist"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// staticCase is one trace the static stack analyzes.
type staticCase struct {
	w      workloads.Workload
	params workloads.Params
}

// staticSeeds is how many workload seeds, derived from the benchmark
// seed, the suite analyzes. The pruner's cost depends on a trace's
// shape, so one seed's trace set runs slower than another's; two seeds
// halve that variance.
const staticSeeds = 2

// staticSuite is the static stack: the verifier, the pruner (with its
// certificate check) and the linter over the traces of every extended
// workload x {undo, redo} x {annotated, legacy} at each of staticSeeds
// seeds, one trace after another, with no timing simulation. It runs
// once in crash-campaign's traced run, after the timed passes, and
// gives the check/prune, check/verify and check layers their per-layer
// metrics. It is not an end-to-end workload of its own: on the shared
// host the benchmark was sized on, its host times spread past the
// largest bound the benchmark may set (README.md, "Bounds").
type staticSuite struct {
	cases []staticCase
}

func newStaticSuite(seed int64, sz size) *staticSuite {
	s := &staticSuite{}
	for k := int64(0); k < staticSeeds; k++ {
		for _, w := range workloads.Extended() {
			for _, mode := range []persist.TxMode{persist.Undo, persist.Redo} {
				for _, legacy := range []bool{false, true} {
					params := workloads.Params{Seed: seed*staticSeeds + k, Items: sz.StaticItems, Ops: sz.StaticOps,
						TxMode: mode, Legacy: legacy}.WithDefaults()
					s.cases = append(s.cases, staticCase{w: w, params: params})
				}
			}
		}
	}
	return s
}

// staticOut is what one trace's analysis reports.
type staticOut struct {
	ops, violations, classes, diags int
	err                             error
}

// run builds every trace, analyzes each one as a cell, checks its
// outputs and adds one digest line per trace to p.
func (s *staticSuite) run(p *pass) {
	t := p.tr
	traces := make([]*trace.Trace, len(s.cases))
	for i, c := range s.cases {
		sp := t.begin("crash.BuildTraces", -1, -1)
		traces[i] = crash.BuildTraces(c.w, c.params, 1)[0]
		t.end(sp)
	}

	arenas := []persist.Arena{persist.ArenaFor(0, crash.DefaultArena)}
	for i, c := range s.cases {
		var o staticOut
		c0 := time.Now()
		o.err = guard(func() error { return analyze(p, traces[i], arenas, &o) })
		p.cellDone(time.Since(c0), o.err)

		label := fmt.Sprintf("%s seed=%d %s legacy=%v", c.w.Name(), c.params.Seed, c.params.TxMode, c.params.Legacy)
		switch {
		case o.err != nil:
			// counted by cellDone
		case !c.params.Legacy && (o.violations != 0 || o.diags != 0):
			p.fail("%s: annotated trace has %d verifier violations and %d lint diagnostics", label, o.violations, o.diags)
		case c.params.Legacy && o.violations == 0:
			p.fail("%s: legacy trace has no verifier violation", label)
		}
		p.lines = append(p.lines, fmt.Sprintf("%s ops=%d violations=%d classes=%d diagnostics=%d err=%v",
			label, o.ops, o.violations, o.classes, o.diags, o.err != nil))
	}
}

// analyze runs the three static analyses over one trace, each under its
// own span.
func analyze(p *pass, tr *trace.Trace, arenas []persist.Arena, out *staticOut) error {
	t := p.tr
	id := t.cell()
	cs := t.begin("trace", -1, id)
	defer t.end(cs)
	timed := func(name, key string, fn func()) {
		sp := t.begin(name, cs, id)
		fn()
		t.end(sp)
		if sp >= 0 {
			p.add(key, float64(t.spans[sp].End-t.spans[sp].Start))
		}
	}

	out.ops = tr.Len()
	var vr verify.Result
	timed("verify.Verify", "verify_ns", func() { vr = verify.Verify(tr, verify.Options{Arenas: arenas}) })
	out.violations = len(vr.Violations)

	popts := prune.Options{Arenas: arenas}
	var part *prune.Partition
	var err error
	timed("prune.Compute", "prune_compute_ns", func() { part, err = prune.Compute(tr, popts) })
	if err != nil {
		return fmt.Errorf("prune.Compute: %w", err)
	}
	out.classes = len(part.Classes)
	timed("prune.Check", "prune_check_ns", func() { err = prune.Check(tr, part, popts) })
	if err != nil {
		return fmt.Errorf("prune.Check: %w", err)
	}

	var diags []check.Diagnostic
	timed("check.Check", "lint_ns", func() { diags = check.Check(tr, check.Options{Arenas: arenas}) })
	out.diags = len(diags)

	p.add("static_ops", float64(out.ops))
	p.add("verify_violations", float64(out.violations))
	p.add("prune_classes", float64(out.classes))
	p.add("lint_diags", float64(out.diags))
	return nil
}
