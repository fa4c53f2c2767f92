package analyzers

import (
	"path/filepath"
	"strings"
	"testing"
)

func fixtureDir(name string) string { return filepath.Join("testdata", "src", name) }

// repoRoot is the module root, three levels above this package.
var repoRoot = filepath.Join("..", "..", "..")

// The lockbad fixture draws its six seeded findings: two re-acquisitions
// (one direct, one through a callee), a send and a receive under a held
// lock, and the lock-order cycle reported in both directions.
func TestLockOrderFixture(t *testing.T) {
	fs, err := LockOrder([]string{fixtureDir("lockbad")})
	if err != nil {
		t.Fatal(err)
	}
	count := func(sub string) int {
		n := 0
		for _, f := range fs {
			if strings.Contains(f.Message, sub) {
				n++
			}
		}
		return n
	}
	if n := count("not reentrant"); n != 2 {
		t.Errorf("re-acquisition findings = %d, want 2: %v", n, fs)
	}
	if n := count("channel send"); n != 1 {
		t.Errorf("send-under-lock findings = %d, want 1: %v", n, fs)
	}
	if n := count("channel receive"); n != 1 {
		t.Errorf("receive-under-lock findings = %d, want 1: %v", n, fs)
	}
	if n := count("lock order cycle"); n != 2 {
		t.Errorf("cycle findings = %d, want 2: %v", n, fs)
	}
	if len(fs) != 6 {
		t.Errorf("total findings = %d, want 6: %v", len(fs), fs)
	}
}

// The lockclean fixture uses runner's own shapes — balanced sections,
// defer Unlock, a lock-free helper under a lock, goroutines, consistent
// two-lock order — and stays clean.
func TestLockOrderCleanFixture(t *testing.T) {
	fs, err := LockOrder([]string{fixtureDir("lockclean")})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Errorf("findings = %v, want none", fs)
	}
}

// calls reports whether the graph has an edge from one key to another,
// failing the test when from is not in the graph at all.
func calls(t *testing.T, g *CallGraph, from, to string) bool {
	t.Helper()
	info := g.Funcs[from]
	if info == nil {
		t.Fatalf("%s is not in the call graph", from)
	}
	for _, c := range info.Calls {
		if c == to {
			return true
		}
	}
	return false
}

// The edge rules lockorder's transitive checks rely on: a method call
// resolves by name, a same-package function call links, a pkg.Func call
// resolves across packages, and a function nobody calls has no
// incoming edge.
func TestCallGraphEdges(t *testing.T) {
	g, err := BuildCallGraph([]string{fixtureDir("lockbad"), fixtureDir("lockclean")}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !calls(t, g, "lockbad.pool.push", "lockbad.pool.locked") {
		t.Error("method call p.locked(v) in lockbad.pool.push did not resolve by name")
	}
	if !calls(t, g, "lockclean.pool.add", "lockclean.sum") {
		t.Error("function call sum(...) in lockclean.pool.add did not link")
	}
	for _, k := range g.Keys() {
		if calls(t, g, k, "lockbad.pool.cycleAB") {
			t.Errorf("%s has an edge to lockbad.pool.cycleAB, which nothing calls", k)
		}
	}

	dirs, err := InterDirs(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := BuildCallGraph(dirs, false)
	if err != nil {
		t.Fatal(err)
	}
	if !calls(t, repo, "crash.RunCampaign", "runner.Map") {
		t.Error("cross-package call runner.Map in crash.RunCampaign did not resolve")
	}
}

// The repository's own concurrency layer must be lockorder-clean, the
// same gate persistcheck -analyzers lockorder enforces in CI.
func TestRepositoryLockOrderClean(t *testing.T) {
	dirs, err := InterDirs(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 10 {
		t.Fatalf("inter scope found only %d dirs — wrong root?", len(dirs))
	}
	fs, err := LockOrder(dirs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
	}
}
