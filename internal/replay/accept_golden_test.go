package replay

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"encnvm/internal/machine"
	"encnvm/internal/mem"
	"encnvm/internal/stats"
	"encnvm/internal/trace"
)

// acceptGolden holds the full stats of saturatingRun on every registry
// engine at 1 and 2 cores. It was recorded before the acceptance scan
// learned to stop early on a full data queue, so it pins that the scan's
// shortcut changes no simulated statistic.
var acceptGolden = filepath.Join("testdata", "accept_stats.golden")

// saturatingTrace is a clwb burst that keeps the controller's data write
// queue full: two rounds over n distinct lines with no fence inside a
// round, so the backlog grows past the acceptance window. Every fourth
// store targets a CounterAtomic variable, and every sixteenth store is
// followed by a ccwb of its counter line, so CA writes, counter writes
// and plain writes all wait behind the full queue. The second round
// rewrites lines whose first-round writes may still be queued.
func saturatingTrace(base mem.Addr, n int) *trace.Trace {
	tr := &trace.Trace{}
	for round := 0; round < 2; round++ {
		tr.Append(trace.Op{Kind: trace.TxBegin})
		for i := 0; i < n; i++ {
			a := base + mem.Addr(i*64)
			tr.Append(trace.Op{Kind: trace.Write, Addr: a, Line: lineOf(byte(round*n + i)), CounterAtomic: i%4 == 0})
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

// saturatingRun replays saturatingTrace on the named registry engine at
// the given core count (one 16 MiB arena per core) and renders the run:
// runtime, event count, then every counter, time and latency.
func saturatingRun(t *testing.T, name string, cores int) string {
	t.Helper()
	spec, err := machine.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.Cores = cores
	m, err := machine.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]*trace.Trace, cores)
	for c := range trs {
		trs[c] = saturatingTrace(mem.Addr(c)<<24, 1024)
	}
	sys, err := NewMachine(m, trs)
	if err != nil {
		t.Fatal(err)
	}
	rt := sys.Run()
	return fmt.Sprintf("== %s cores=%d runtime=%d events=%d ==\n%s", name, cores, rt, sys.Eng.Steps(), sys.St.String())
}

// TestAcceptanceStatsGolden replays a queue-saturating burst on every
// registry engine at 1 and 2 cores and requires the stats to match the
// recorded golden byte for byte. The scenario must make the acceptance
// scan fail on a full queue: SCA has to count both write-queue-full
// stalls and ready-bit waits.
func TestAcceptanceStatsGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range machine.Names() {
		for _, cores := range []int{1, 2} {
			run := saturatingRun(t, name, cores)
			b.WriteString(run)
			if name == "sca" {
				for _, c := range []stats.Counter{stats.WriteQueueStalls, stats.ReadyBitWaits} {
					if !strings.Contains(run, "\n"+c.String()+" ") {
						t.Errorf("sca cores=%d: %s never counted; the scenario no longer saturates", cores, c)
					}
				}
			}
		}
	}
	want, err := os.ReadFile(acceptGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("stats differ from %s at line %d:\n got: %s\nwant: %s", acceptGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("stats differ from %s: %d lines, want %d", acceptGolden, len(gl), len(wl))
	}
}
