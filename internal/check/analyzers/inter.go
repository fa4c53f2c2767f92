package analyzers

import (
	"path/filepath"
	"sort"
)

// The interprocedural tier. Unlike the vet-style per-package Analyzers,
// lockorder runs over one CallGraph spanning several packages at once:
// a global acquisition order, and locks taken one or more calls away,
// are invisible to a single-package pass.

// interScope lists the package directory base names lockorder analyzes
// together: the packages that take locks (runner's worker pool, exp's
// trace cache, crash's campaign, machine's registry) and every package
// the code running under those locks can call, down to the replay loop
// and the machine it drives. Lock-order edges run through calls, so a
// callee left out of scope would hide the locks it takes. CLI
// front-ends and the check packages themselves stay out: they hold no
// lock of their own, so none of their calls can add an order edge.
var interScope = map[string]bool{
	"replay": true, "core": true, "memctrl": true, "ctrenc": true,
	"cache": true, "nvm": true, "mem": true, "sim": true,
	"machine": true, "engines": true, "trace": true, "stats": true,
	"persist": true, "crash": true, "config": true,
	"runner": true, "exp": true, "workloads": true,
	// perf (the host-side phase profiler) stays out: the name-based
	// call graph would weld its End/Store/Load method names onto
	// unrelated methods in scope and charge its profiler lock to every
	// caller of those names. Its locks guard only its own tables.
}

// InterDirs filters Walk's output down to the interprocedural scope.
func InterDirs(root string) ([]string, error) {
	all, err := Walk(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	for _, d := range all {
		if interScope[filepath.Base(d)] {
			dirs = append(dirs, d)
		}
	}
	return dirs, nil
}

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
