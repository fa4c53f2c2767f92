package crash

import (
	"bytes"
	"fmt"

	"encnvm/internal/check/verify"
	"encnvm/internal/mem"
	"encnvm/internal/persist"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// ReplayOutcome is the result of functionally replaying a counterexample
// crash schedule.
type ReplayOutcome struct {
	Reproduced  bool
	ValidateErr error // non-nil: post-recovery structural validation failed
	SilentLoss  bool  // published structure unreadable after the crash
	RolledBack  bool  // recovery replayed a log entry the program had committed
	Divergence  bool  // durability only: victim line lost its committed value
}

// String summarizes the outcome.
func (o ReplayOutcome) String() string {
	if !o.Reproduced {
		return "not reproduced: recovered image is consistent and durable"
	}
	switch {
	case o.ValidateErr != nil:
		return fmt.Sprintf("reproduced: validation failed: %v", o.ValidateErr)
	case o.SilentLoss:
		return "reproduced: published structure unreadable after crash"
	case o.Divergence:
		return "reproduced: committed effect lost (recovered state diverges from final state)"
	default:
		return "reproduced"
	}
}

// ReplaySchedule replays a verifier counterexample against the trace it
// was derived from: build the post-crash image the schedule describes,
// run log recovery, and check whether the failure the violation predicts
// actually manifests.
//
// A consistency counterexample reproduces when post-recovery structural
// validation fails, or the structure was persistently published yet
// unreadable. A durability counterexample reproduces on those same
// grounds, or when recovery rolled back a transaction the program had
// committed, or when the victim heap line no longer holds the value the
// program had committed by the crash point — the effect is gone even
// though the image is internally consistent.
//
// A schedule whose crash op is not an op of tr names no crash point and
// is rejected with an error.
func ReplaySchedule(w workloads.Workload, tr *trace.Trace, arena persist.Arena,
	sched *verify.Schedule) (ReplayOutcome, error) {

	if err := tr.Validate(); err != nil {
		return ReplayOutcome{}, err
	}
	if sched.CrashOp < 0 || sched.CrashOp >= tr.Len() {
		return ReplayOutcome{}, fmt.Errorf("crash: schedule crash op %d out of range: the trace has ops [0, %d)",
			sched.CrashOp, tr.Len())
	}
	space := verify.BuildImage(tr, sched)
	rep := persist.Recover(space, arena)
	final := verify.FinalImage(tr)

	var out ReplayOutcome
	out.ValidateErr = w.Validate(space, arena)
	out.SilentLoss = w.Published(final, arena) && !w.Published(space, arena)
	out.Reproduced = out.ValidateErr != nil || out.SilentLoss

	if sched.Kind == verify.KindDurability && !out.Reproduced {
		// By the crash point every transaction in the prefix has
		// committed, so anything recovery found to replay is a committed
		// transaction that was not durable.
		out.RolledBack = rep.ValidEntries > 0
		// The victim's committed value is whatever the program had stored
		// to it by the crash point — compare against the prefix's final
		// state, not the whole trace's (later transactions' effects are
		// legitimately absent). Log-region victims carry no comparable
		// program state: recovery itself rewrites them.
		victim := mem.Addr(sched.Victim).LineAddr()
		if victim >= arena.HeapBase() && victim < arena.End() {
			prefix := tr
			if sched.CrashOp+1 < tr.Len() {
				prefix = trace.New(tr.Ops()[:sched.CrashOp+1])
			}
			want := verify.FinalImage(prefix).ReadLine(victim)
			got := space.ReadLine(victim)
			out.Divergence = !bytes.Equal(got[:], want[:])
		}
		out.Reproduced = out.RolledBack || out.Divergence
	}
	return out, nil
}
