package memctrl_test

import (
	"fmt"
	"testing"

	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/mem"
	"encnvm/internal/memctrl"
	"encnvm/internal/replay"
	"encnvm/internal/sim"
	"encnvm/internal/stats"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// clwbBurst keeps the controller's write queues full: two rounds over
// n distinct lines with no fence inside a round, every fourth store to a
// CounterAtomic variable and a ccwb after every sixteenth, so plain, CA
// and counter writes all wait behind the full queue. The second round
// rewrites lines whose first-round writes may still be queued.
func clwbBurst(base mem.Addr, n int) *trace.Trace {
	tr := &trace.Trace{}
	for round := 0; round < 2; round++ {
		tr.Append(trace.Op{Kind: trace.TxBegin})
		for i := 0; i < n; i++ {
			a := base + mem.Addr(i*64)
			var l mem.Line
			l[0] = byte(round*n + i)
			tr.Append(trace.Op{Kind: trace.Write, Addr: a, Line: l, CounterAtomic: i%4 == 0})
			tr.Append(trace.Op{Kind: trace.Clwb, Addr: a})
			if i%16 == 15 {
				tr.Append(trace.Op{Kind: trace.CCWB, Addr: a})
			}
		}
		tr.Append(trace.Op{Kind: trace.Sfence})
		tr.Append(trace.Op{Kind: trace.TxEnd})
	}
	return tr
}

// TestQueueInvariants replays a queue-saturating clwb burst and a
// workload on every registry engine at 1 and 2 cores, and checks the
// controller's queue-order invariants (CheckQueues) each time the
// simulated clock advances. The burst must stall writes on a full queue.
func TestQueueInvariants(t *testing.T) {
	w, err := workloads.ByName("btree")
	if err != nil {
		t.Fatal(err)
	}
	p := workloads.Params{Seed: 1, Items: 128, Ops: 32, OpsPerTx: 1, ComputeCycles: 50}
	for _, name := range machine.Names() {
		for _, cores := range []int{1, 2} {
			burst := make([]*trace.Trace, cores)
			for c := range burst {
				burst[c] = clwbBurst(mem.Addr(c)<<24, 512)
			}
			sets := []struct {
				name   string
				traces []*trace.Trace
			}{{"burst", burst}, {w.Name(), crash.BuildTraces(w, p, cores)}}
			for _, set := range sets {
				t.Run(fmt.Sprintf("%s/cores=%d/%s", name, cores, set.name), func(t *testing.T) {
					checks, st := checkedRun(t, name, set.traces)
					if checks == 0 {
						t.Fatal("the clock never advanced")
					}
					if set.name == "burst" && st.Count(stats.WriteQueueStalls) == 0 {
						t.Error("no write stalled on a full queue; the burst no longer saturates")
					}
				})
			}
		}
	}
}

// checkedRun replays traces on the named engine, checking the queues at
// every clock advance and at the end. It returns the number of checks
// and the run's stats.
func checkedRun(t *testing.T, name string, traces []*trace.Trace) (checks int, st *stats.Stats) {
	t.Helper()
	spec, err := machine.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.Cores = len(traces)
	m, err := machine.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := replay.NewMachine(m, traces)
	if err != nil {
		t.Fatal(err)
	}
	var failed error
	sys.Eng.OnAdvance(func(sim.Time) {
		if failed != nil {
			return
		}
		checks++
		if err := memctrl.CheckQueues(sys.MC); err != nil {
			failed = fmt.Errorf("t=%d: %w", sys.Eng.Now(), err)
		}
	})
	sys.Run()
	if failed == nil {
		failed = memctrl.CheckQueues(sys.MC)
	}
	if failed != nil {
		t.Fatal(failed)
	}
	return checks, sys.St
}
