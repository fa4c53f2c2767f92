package check

import (
	"context"
	"fmt"
	"testing"

	"encnvm/internal/persist"
	"encnvm/internal/runner"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// Mutation testing: programmatically drop or displace one ordering
// primitive in a known-clean workload trace and assert the linter flags
// the mutant with the expected rule at the expected op index. The catalog
// itself lives in mutants.go so the static verifier's cross-validation
// suite and cmd/crashtest -schedule can regenerate identical mutants;
// every transactional workload yields eleven mutants, the log-free
// linked list three more.
//
// Each mutant's lint is an independent check over its own trace copy, so
// the suite shards the catalog over the runner (and the per-workload
// subtests run with t.Parallel), which also race-checks Check itself
// under `go test -race`.

// lintVerdict is one sharded mutant check's outcome; fail is non-empty
// when the mutant did not draw the expected diagnostic.
type lintVerdict struct {
	fail string
}

// lintMutants checks every mutant concurrently and reports each one that
// did not draw the expected diagnostic. Shard results come back in
// catalog order, so failure output is deterministic.
func lintMutants(t *testing.T, ms []Mutant) {
	t.Helper()
	verdicts, err := runner.MapValues(context.Background(), ms,
		func(_ context.Context, m Mutant) (lintVerdict, error) {
			ds := Check(m.Trace, Options{Arenas: []persist.Arena{testArena()}})
			for _, d := range ds {
				if d.Rule == m.Rule && (m.At < 0 || d.OpIndex == m.At) {
					return lintVerdict{}, nil
				}
			}
			return lintVerdict{fmt.Sprintf("%s: no %s diagnostic at op %d; got %v",
				m.Name, m.Rule, m.At, ds)}, nil
		},
		runner.Options{Label: func(i int) string { return "mutant/" + ms[i].Name }})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range verdicts {
		if v.fail != "" {
			t.Error(v.fail)
		}
	}
}

func TestMutantsTransactionalWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			tr := buildTrace(t, w, testParams())
			if ds := Check(tr, Options{Arenas: []persist.Arena{testArena()}}); len(ds) != 0 {
				t.Fatalf("baseline not clean: %v", ds[0])
			}
			ms, err := TxMutants(tr)
			if err != nil {
				t.Fatal(err)
			}
			if len(ms) < 11 {
				t.Fatalf("catalog has %d transactional mutants, want >= 11", len(ms))
			}
			lintMutants(t, ms)
		})
	}
}

// The log-free linked list publishes with a bare CounterAtomic head flip;
// dropping any leg of its pre-publication barrier must be caught.
func TestMutantsLinkedList(t *testing.T) {
	w := &workloads.LinkedList{}
	tr := buildTrace(t, w, testParams())
	if ds := Check(tr, Options{Arenas: []persist.Arena{testArena()}}); len(ds) != 0 {
		t.Fatalf("baseline not clean: %v", ds[0])
	}
	ms, err := ListMutants(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("catalog has %d linked-list mutants, want 3", len(ms))
	}
	lintMutants(t, ms)
}

// MutantByName must regenerate exactly the cataloged mutant — the
// property cmd/crashtest -schedule relies on to replay counterexamples —
// from both catalogs: a linked-list trace has no transaction, so the
// transactional catalog must fail cleanly before the list catalog is
// searched. Regeneration of each mutant is independent, so this also
// shards.
func TestMutantByName(t *testing.T) {
	for _, c := range []struct {
		w   workloads.Workload
		gen func(*trace.Trace) ([]Mutant, error)
	}{
		{&workloads.ArraySwap{}, TxMutants},
		{&workloads.LinkedList{}, ListMutants},
	} {
		tr := buildTrace(t, c.w, testParams())
		ms, err := c.gen(tr)
		if err != nil {
			t.Fatal(err)
		}
		type verdict struct{ fail string }
		verdicts, err := runner.MapValues(context.Background(), ms,
			func(_ context.Context, want Mutant) (verdict, error) {
				got, err := MutantByName(tr, want.Name)
				if err != nil {
					return verdict{fmt.Sprintf("%s: %v", want.Name, err)}, nil
				}
				if got.Trace.Len() != want.Trace.Len() {
					return verdict{fmt.Sprintf("%s: regenerated length %d != %d",
						want.Name, got.Trace.Len(), want.Trace.Len())}, nil
				}
				for i := 0; i < want.Trace.Len(); i++ {
					if got.Trace.At(i) != want.Trace.At(i) {
						return verdict{fmt.Sprintf("%s: regenerated trace differs at op %d", want.Name, i)}, nil
					}
				}
				return verdict{}, nil
			},
			runner.Options{Label: func(i int) string { return "regen/" + ms[i].Name }})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range verdicts {
			if v.fail != "" {
				t.Error(v.fail)
			}
		}
		if _, err := MutantByName(tr, "no-such-mutant"); err == nil {
			t.Fatalf("%s: unknown mutant name not rejected", c.w.Name())
		}
	}
}

// The sharded checker must agree with a straight sequential loop over
// the same catalog — linting one mutant must not depend on linting
// another.
func TestMutantShardingMatchesSequential(t *testing.T) {
	tr := buildTrace(t, &workloads.Queue{}, testParams())
	ms, err := TxMutants(tr)
	if err != nil {
		t.Fatal(err)
	}
	diag := func(m Mutant) string {
		return fmt.Sprint(Check(m.Trace, Options{Arenas: []persist.Arena{testArena()}}))
	}
	var seq []string
	for _, m := range ms {
		seq = append(seq, diag(m))
	}
	par, err := runner.MapValues(context.Background(), ms,
		func(_ context.Context, m Mutant) (string, error) { return diag(m), nil },
		runner.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if par[i] != seq[i] {
			t.Errorf("%s: sharded diagnostics differ:\n  seq: %s\n  par: %s", ms[i].Name, seq[i], par[i])
		}
	}
}
