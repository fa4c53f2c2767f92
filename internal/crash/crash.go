// Package crash injects power failures into a simulated run and checks
// whether the persistent state recovers consistently — the paper's central
// correctness claim, exercised functionally.
//
// A crash at instant T leaves NVM holding exactly the device writes that
// completed by T, plus the ADR drain of the write queues (§5.2.2: only
// ready entries drain). Volatile state — caches, the dirty counter cache,
// writes still awaiting queue acceptance — is lost. Recovery then does
// what real firmware would do: decrypt every data line with the counter
// found in NVM (garbage if data and counter are out of sync, Eq. 4), run
// the undo-log recovery, and validate the workload's structural
// invariants.
//
// Designs with counter-atomicity (FCA, SCA, the co-located pair) must
// survive every crash point; the Ideal design — counter-mode encryption
// with no counter-atomicity — demonstrably does not.
package crash

import (
	"fmt"

	"encnvm/internal/config"
	"encnvm/internal/ctrenc"
	"encnvm/internal/machine"
	"encnvm/internal/mem"
	"encnvm/internal/perf"
	"encnvm/internal/persist"
	"encnvm/internal/replay"
	"encnvm/internal/sim"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// DefaultArena is the per-core arena used by the harness.
const DefaultArena = 64 << 20

// Result is the outcome of one crash injection. The JSON shape is part
// of the campaign report format; every count is meaningful (and emitted
// as an explicit zero) in every sweep mode.
type Result struct {
	CrashAt          sim.Time     `json:"crash_at"`
	LostCounterLines int          `json:"lost_counter_lines"` // dirty counter-cache lines lost at the crash
	RecoveredEntries int          `json:"recovered_entries"`  // undo-log entries rolled back
	CorruptLog       int          `json:"corrupt_log"`        // log entries rejected as garbage
	Osiris           RecoveryCost `json:"osiris"`             // firmware recovery work (Osiris candidate search; BMT root-walk verification)
	Err              error        `json:"-"`                  // non-nil: recovery produced an inconsistent state
	// Error mirrors Err for the wire: error values do not round-trip
	// JSON, strings do. Omitted when recovery was consistent.
	Error string `json:"error,omitempty"`
}

// Consistent reports whether recovery succeeded. It consults both error
// carriers so a Result decoded from a checkpoint (Err necessarily nil)
// judges the same as the Result the injection produced.
func (r Result) Consistent() bool { return r.Err == nil && r.Error == "" }

// Sweep modes, recorded in Report.Mode.
const (
	// ModeGrid covers CampaignOptions.GridPoints+1 instants spread
	// evenly over the execution window, unrelated to op boundaries.
	ModeGrid = "grid"
	// ModeExhaustive simulates every per-op crash gap.
	ModeExhaustive = "exhaustive"
	// ModePruned simulates one representative per equivalence cell and
	// attributes its verdict to the whole cell.
	ModePruned = "pruned"
)

// Report summarizes a crash-point sweep.
//
// The counting fields are explicit (no omitempty) on purpose: a grid or
// exhaustive report writes literal zeros for the pruning fields rather
// than omitting them, so "this mode prunes nothing" and "this report
// predates pruning" are distinguishable on the wire.
type Report struct {
	Design   config.Design `json:"design"`
	Workload string        `json:"workload"`
	// Mode is how the crash-point space was enumerated: ModeGrid,
	// ModeExhaustive, or ModePruned.
	Mode string `json:"mode"`
	// CrashPoints is the size of the covered crash-point space: grid
	// points for ModeGrid, per-op gaps (ops+1) otherwise. Always set.
	CrashPoints int `json:"crash_points"`
	// Simulated counts injections actually run, including validation
	// members. Equals CrashPoints except in ModePruned. Always set.
	Simulated int `json:"simulated"`
	// Classes and Cells describe the partition in ModeExhaustive and
	// ModePruned: static equivalence classes, and classes after
	// epoch-timeline refinement (the unit actually simulated). Both are
	// deliberate zeros in ModeGrid, which has no partition.
	Classes int `json:"classes"`
	Cells   int `json:"cells"`
	// Pruned counts crash points covered without simulation, and
	// PrunedFraction is Pruned/CrashPoints. Deliberate zeros outside
	// ModePruned: grid and exhaustive sweeps simulate everything.
	Pruned         int     `json:"pruned"`
	PrunedFraction float64 `json:"pruned_fraction"`
	// Validated counts extra non-representative members simulated by
	// class validation. Deliberate zero unless validation ran.
	Validated int      `json:"validated"`
	Results   []Result `json:"results,omitempty"`
}

// Failures returns the inconsistent results.
func (r Report) Failures() []Result {
	var out []Result
	for _, res := range r.Results {
		if !res.Consistent() {
			out = append(out, res)
		}
	}
	return out
}

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("%-22s %-10s crash points: %3d, inconsistent: %d",
		r.Design, r.Workload, len(r.Results), len(r.Failures()))
}

// BuildTraces runs the workload functionally on each core's runtime and
// returns the per-core traces. Core i uses arena i and seed p.Seed+i.
func BuildTraces(w workloads.Workload, p workloads.Params, cores int) []*trace.Trace {
	defer perf.Begin("trace-build").End()
	traces := make([]*trace.Trace, cores)
	for i := 0; i < cores; i++ {
		pc := p
		pc.Seed = p.Seed + int64(i)
		rt := persist.NewRuntime(persist.ArenaFor(i, DefaultArena))
		rt.SetLegacy(p.Legacy)
		rt.SetTxMode(p.TxMode)
		w.Setup(rt, pc)
		w.Run(rt, pc)
		traces[i] = rt.Trace()
	}
	return traces
}

// DecryptImage reconstructs the plaintext view of a post-crash NVM
// snapshot, decrypting every data line with the counter present in the
// snapshot's counter region — stale or missing counters yield garbage,
// exactly as on real hardware. A nil encryption engine (plaintext design)
// copies lines verbatim.
func DecryptImage(lay mem.Layout, enc *ctrenc.Engine,
	snapshot map[mem.Addr]mem.Line) *mem.Space {

	space := mem.NewSpace()
	for addr, ct := range snapshot {
		if !lay.IsData(addr) {
			continue
		}
		if enc == nil {
			space.WriteLine(addr, ct)
			continue
		}
		var ctr uint64
		if cl, ok := snapshot[lay.CounterLine(addr)]; ok {
			ctr = ctrenc.UnpackCounterLine(cl)[lay.CounterSlot(addr)]
		}
		space.WriteLine(addr, enc.Decrypt(ct, addr, ctr))
	}
	return space
}

// RecoveryCost quantifies a metadata engine's recovery work — nonzero
// only for checksum-recovery engines (Osiris), whose candidate-search
// cost is the dimension the Anubis follow-on optimizes.
type RecoveryCost = machine.RecoveryCost

// decryptOracle decrypts a post-crash snapshot using the ground-truth
// counter recorded with each write — what the firmware would see if data
// and counter had been perfectly atomic. The harness compares real
// recovery against it to detect silent total loss.
func decryptOracle(lay mem.Layout, enc *ctrenc.Engine,
	writes map[mem.Addr]mem.Write) *mem.Space {

	space := mem.NewSpace()
	for addr, w := range writes {
		if !lay.IsData(addr) {
			continue
		}
		if enc == nil {
			space.WriteLine(addr, w.Data)
			continue
		}
		space.WriteLine(addr, enc.Decrypt(w.Data, addr, w.Tag))
	}
	return space
}

// inject builds a fresh machine from the spec, replays the traces up to
// the given instant, crashes there, and runs the design's recovery —
// delegated to the machine's metadata engine — plus validation for
// every core's arena. Machine construction stays outside the perf
// regions so host profiles can attribute it separately.
func inject(spec *machine.Spec, w workloads.Workload, traces []*trace.Trace,
	at sim.Time) (Result, error) {

	m, err := machine.Build(spec)
	if err != nil {
		return Result{}, err
	}
	sys, err := replay.NewMachine(m, traces)
	if err != nil {
		return Result{}, err
	}

	rr := perf.Begin("replay")
	t := sys.RunUntil(at)
	sys.MC.DrainADR(t)
	rr.End()

	res := Result{
		CrashAt:          t,
		LostCounterLines: len(sys.MC.DirtyCounterLines()),
	}
	rc := perf.Begin("recover")
	writes := sys.Dev.Image().SnapshotWritesAt(t)
	var space *mem.Space
	space, res.Osiris = sys.Meta.Recover(sys.Cfg, sys.MC.Layout(), sys.MC.Encryption(), writes)
	oracle := decryptOracle(sys.MC.Layout(), sys.MC.Encryption(), writes)
	rc.End()

	rv := perf.Begin("verify")
	defer rv.End()
	for i := range traces {
		arena := persist.ArenaFor(i, DefaultArena)
		rep := persist.Recover(space, arena)
		res.RecoveredEntries += rep.ValidEntries
		res.CorruptLog += rep.Corrupt

		// The oracle is what a perfectly counter-atomic system would
		// recover; it must always be consistent, or the harness itself
		// is broken.
		persist.Recover(oracle, arena)
		if err := w.Validate(oracle, arena); err != nil {
			return res, fmt.Errorf("crash: oracle inconsistent at %v: %w", t, err)
		}

		switch err := w.Validate(space, arena); {
		case err != nil:
			res.Err = fmt.Errorf("core %d: %w", i, err)
		case w.Published(oracle, arena) && !w.Published(space, arena):
			// The structure was persistently published, but the real
			// decryption lost it entirely — silent catastrophic loss,
			// which a structural validator alone cannot see.
			res.Err = fmt.Errorf("core %d: published structure unreadable after crash (counters lost)", i)
		}
		if res.Err != nil {
			break
		}
	}
	if res.Err != nil {
		res.Error = res.Err.Error()
	}
	return res, nil
}
