package crash

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"encnvm/internal/check"
	"encnvm/internal/check/verify"
	"encnvm/internal/persist"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// scheduleParams sizes the small queue trace the schedule tests replay
// against (about 300 ops).
var scheduleParams = workloads.Params{Seed: 1, Items: 8, Ops: 4, OpsPerTx: 1}

func scheduleTrace(t testing.TB) (workloads.Workload, *trace.Trace) {
	t.Helper()
	w, err := workloads.ByName("queue")
	if err != nil {
		t.Fatal(err)
	}
	tr := BuildTraces(w, scheduleParams, 1)[0]
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return w, tr
}

// A crash op outside the trace names no crash point: ReplaySchedule
// must reject it instead of clamping it to the first or last op.
func TestReplayScheduleRejectsOutOfRangeCrashOp(t *testing.T) {
	w, tr := scheduleTrace(t)
	arena := persist.ArenaFor(0, DefaultArena)
	for _, op := range []int{-5, -1, tr.Len(), 100000} {
		sched := &verify.Schedule{CrashOp: op, Kind: verify.KindConsistency, Inv: "V2"}
		if out, err := ReplaySchedule(w, tr, arena, sched); err == nil {
			t.Errorf("crash op %d of %d ops accepted: %v", op, tr.Len(), out)
		}
	}
	for _, op := range []int{0, tr.Len() - 1} {
		sched := &verify.Schedule{CrashOp: op, Kind: verify.KindConsistency, Inv: "V2"}
		if _, err := ReplaySchedule(w, tr, arena, sched); err != nil {
			t.Errorf("crash op %d of %d ops: %v", op, tr.Len(), err)
		}
	}
}

// FuzzReplaySchedule decodes arbitrary bytes as a verifier
// counterexample file and replays its schedule against the small queue
// trace, or against the catalog mutant the file names: it must never
// panic, and it must return an error exactly when the crash op lies
// outside the trace. The corpus is seeded with counterexample files
// written the way persistcheck -verify writes them, one per mutant the
// verifier flags.
func FuzzReplaySchedule(f *testing.F) {
	w, tr := scheduleTrace(f)
	arena := persist.ArenaFor(0, DefaultArena)
	ms, err := check.TxMutants(tr)
	if err != nil {
		f.Fatal(err)
	}
	traces := map[string]*trace.Trace{"": tr}
	dir := f.TempDir()
	for _, m := range ms {
		traces[m.Name] = m.Trace
		res := verify.Verify(m.Trace, verify.Options{Arenas: []persist.Arena{arena}})
		if len(res.Violations) == 0 || res.Violations[0].Schedule == nil {
			continue
		}
		cex := &verify.File{
			Workload: w.Name(), TxMode: "undo",
			Seed: scheduleParams.Seed, Items: scheduleParams.Items, Ops: scheduleParams.Ops,
			OpsPerTx: scheduleParams.OpsPerTx, Cores: 1,
			Mutant: m.Name, Schedule: *res.Violations[0].Schedule,
		}
		path := filepath.Join(dir, m.Name+".json")
		if err := cex.WriteFile(path); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"workload":"queue","schedule":{"crashOp":-5,"kind":"consistency","inv":"V2"}}`))
	f.Add([]byte(`{"workload":"queue","schedule":{"crashOp":100000,"kind":"durability","inv":"V4"}}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		var cex verify.File // verify.ReadFile's decode
		if json.Unmarshal(b, &cex) != nil {
			return
		}
		target, ok := traces[cex.Mutant]
		if !ok {
			return
		}
		sched := &cex.Schedule
		_, err := ReplaySchedule(w, target, arena, sched)
		inRange := sched.CrashOp >= 0 && sched.CrashOp < target.Len()
		if inRange && err != nil {
			t.Fatalf("crash op %d of %d ops rejected: %v", sched.CrashOp, target.Len(), err)
		}
		if !inRange && err == nil {
			t.Fatalf("crash op %d of %d ops accepted", sched.CrashOp, target.Len())
		}
	})
}
