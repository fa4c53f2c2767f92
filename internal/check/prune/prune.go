// Package prune partitions a trace's per-op crash points into the
// crash-point equivalence classes the static verifier enumerates
// (internal/check/verify): a deterministic tiling of the crash gaps into
// classes, each with one representative point.
//
// # Crash points and classes
//
// For a trace of N ops, the per-op crash-point space is the N+1 "gaps":
// gap k is a power failure after the first k ops have retired and before
// op k takes effect (gap 0 precedes everything; gap N follows the whole
// trace). A new class opens only at ops that can change the reachable
// persisted-image set — Write/Clwb/CCWB/Sfence, the op kinds
// verify.OpensClass names — so the gaps between two consecutive
// class-opening ops all observe the same abstract state.
//
// # What a class does and does not prove
//
// Classes certify equality of the ABSTRACT state: crash points in one
// class are indistinguishable to the verifier's invariants. They do not
// by themselves certify equality of the concrete simulated crash image —
// timing-level events (delayed write-queue acceptance, counter-cache
// evictions triggered by reads) can change the device image inside one
// static class. The crash campaign (internal/crash) therefore refines
// each class against the dynamic persist-epoch timeline before pruning;
// see DESIGN.md "Crash-point pruning" for the layered soundness
// argument.
package prune

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"encnvm/internal/check/verify"
	"encnvm/internal/persist"
	"encnvm/internal/trace"
)

// Options configures one partition computation.
type Options struct {
	// Arenas is unused: class boundaries depend on op kinds alone. It
	// stays only because the host benchmark (perfbench) sets it.
	Arenas []persist.Arena
}

// Class is one crash-point equivalence class.
type Class struct {
	// Index is the class ordinal, dense from 0 in trace order.
	Index int `json:"class"`
	// OpIndex is the class-opening op (-1 for the initial class).
	OpIndex int `json:"op"`
	// Boundary is the opening op's kind ("start" for the initial class).
	Boundary string `json:"boundary"`
	// Gaps is the half-open interval [lo, hi) of crash gaps the class
	// covers: gap k crashes after the first k ops.
	Gaps [2]int `json:"gaps"`
	// Representative is the gap a pruned campaign simulates for the
	// whole class — always the first gap of the interval.
	Representative int `json:"rep"`
}

// Size returns the number of crash gaps the class covers.
func (c Class) Size() int { return c.Gaps[1] - c.Gaps[0] }

// Partition is the full class tiling of one trace.
type Partition struct {
	Ops     int     `json:"ops"`  // trace length
	Gaps    int     `json:"gaps"` // crash points covered (== ops+1)
	Classes []Class `json:"classes"`
}

// Compute partitions tr's crash points, opening a class at every op
// verify.OpensClass names. The result is deterministic. A structurally
// invalid trace is rejected — its class enumeration cannot be trusted.
func Compute(tr trace.Source, opts Options) (*Partition, error) {
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("prune: invalid trace: %w", err)
	}
	n := tr.Len()
	p := &Partition{Ops: n, Gaps: n + 1}
	open := func(i int, boundary string) {
		if k := len(p.Classes); k > 0 {
			p.Classes[k-1].Gaps[1] = i + 1
		}
		p.Classes = append(p.Classes, Class{
			Index:          len(p.Classes),
			OpIndex:        i,
			Boundary:       boundary,
			Gaps:           [2]int{i + 1, n + 1},
			Representative: i + 1,
		})
	}
	open(-1, "start")
	var op trace.Op
	for i := 0; i < n; i++ {
		tr.Op(i, &op)
		if verify.OpensClass(op.Kind) {
			open(i, op.Kind.String())
		}
	}
	return p, nil
}

// Check verifies a partition against its trace: the gap tiling (classes
// cover [0, ops+1) contiguously with in-range representatives) and, by
// recomputation, every class boundary. A partition that passes Check is
// exactly what Compute would produce for tr, up to the choice of
// representatives.
func Check(tr trace.Source, p *Partition, opts Options) error {
	if p.Ops != tr.Len() || p.Gaps != tr.Len()+1 {
		return fmt.Errorf("prune: partition for %d ops / %d gaps, trace has %d ops",
			p.Ops, p.Gaps, tr.Len())
	}
	next := 0
	for i, c := range p.Classes {
		if c.Index != i {
			return fmt.Errorf("prune: class %d carries index %d", i, c.Index)
		}
		if c.Gaps[0] != next || c.Gaps[1] <= c.Gaps[0] {
			return fmt.Errorf("prune: class %d covers [%d,%d), want start at %d",
				i, c.Gaps[0], c.Gaps[1], next)
		}
		if c.Representative < c.Gaps[0] || c.Representative >= c.Gaps[1] {
			return fmt.Errorf("prune: class %d representative %d outside [%d,%d)",
				i, c.Representative, c.Gaps[0], c.Gaps[1])
		}
		next = c.Gaps[1]
	}
	if next != p.Gaps {
		return fmt.Errorf("prune: classes cover %d gaps, trace has %d", next, p.Gaps)
	}
	want, err := Compute(tr, opts)
	if err != nil {
		return err
	}
	if len(want.Classes) != len(p.Classes) {
		return fmt.Errorf("prune: %d classes, recomputation finds %d",
			len(p.Classes), len(want.Classes))
	}
	for i := range p.Classes {
		got, ref := p.Classes[i], want.Classes[i]
		got.Representative = ref.Representative // any in-range choice is valid
		if got != ref {
			return fmt.Errorf("prune: class %d does not match the trace: got %+v, want %+v",
				i, p.Classes[i], ref)
		}
	}
	return nil
}

// Hash fingerprints the partition (FNV-1a over its canonical encoding)
// for binding campaign checkpoints to the exact class structure.
func (p *Partition) Hash() uint64 {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	if err := enc.Encode(p); err != nil {
		panic("prune: unencodable partition: " + err.Error())
	}
	return h.Sum64()
}
