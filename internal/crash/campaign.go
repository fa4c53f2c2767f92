// Campaigns: the one crash-injection path. A campaign probes the
// workload's timing once, turns the probe into a sorted set of crash
// deadlines, and fans one injection per cell out over the runner, with
// optional JSONL checkpointing for resume.
//
// # Crash-point spaces
//
// A per-op campaign enumerates the per-op gaps of a single-core trace:
// gap k is a power failure after the first k ops retired and before op
// k+1 takes effect. One probe run with retire-time recording yields the
// deadline of every gap — t(0) = 0, t(k) = retire time of op k-1 — so
// the space has exactly ops+1 points, anchored to program structure.
//
// A grid campaign (CampaignOptions.GridPoints > 0) instead spreads
// GridPoints+1 instants evenly over the probe run, unrelated to op
// boundaries; each grid cell holds one point. Grid deadlines are plain
// time points, so grid campaigns accept any core count.
//
// # Layered pruning soundness
//
// The static partition opens a class at every op that can change the
// verifier's abstract persist state (Write, Clwb, CCWB, Sfence), so gaps
// in one class are abstract-state equal. That is not concrete-image
// equality: timing-level events (delayed write-queue acceptance, counter
// evictions forced by reads) can change the device image between two
// gaps the verifier cannot distinguish. The campaign
// therefore refines every static class against the dynamic
// persist-epoch timeline recorded by the probe run: the memory
// controller reports an epoch at every instant the crash-visible state
// mutates (queue acceptance, counter eviction, device-write landing),
// so two deadlines with no epoch strictly-after the first and at-or-
// before the second bound identical crash images. Cells — classes split
// at epoch instants — are the unit a pruned campaign simulates; the
// representative's verdict is attributed to every gap in the cell.
// -validate-classes re-simulates sampled non-representative members and
// fails loudly if any diverges from its representative.
package crash

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"encnvm/internal/check/prune"
	"encnvm/internal/config"
	"encnvm/internal/machine"
	"encnvm/internal/perf"
	"encnvm/internal/persist"
	"encnvm/internal/replay"
	"encnvm/internal/runner"
	"encnvm/internal/sim"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// Checkpoint and report schema tags.
const (
	CheckpointSchema = "encnvm/campaign-checkpoint/v1"
	ReportSchema     = "encnvm/campaign-report/v1"
)

// ErrCampaignHalted reports a campaign stopped by CampaignOptions.
// HaltAfter with its checkpoint intact — the kill half of the
// kill-and-resume tests, not a failure.
var ErrCampaignHalted = errors.New("crash: campaign halted; resume from its checkpoint")

// CampaignOptions configures one RunCampaign call.
type CampaignOptions struct {
	// Workers is the injection parallelism degree (<= 0: GOMAXPROCS).
	Workers int
	// GridPoints, when > 0, crashes at GridPoints+1 instants spread
	// evenly over the run (ModeGrid) instead of at every per-op gap.
	// Grid campaigns accept any core count but neither prune nor
	// validate classes.
	GridPoints int
	// Pruned simulates one representative per epoch-refined cell
	// instead of every gap.
	Pruned bool
	// ValidateMembers, when > 0, additionally simulates up to that many
	// distinct non-representative gaps per multi-gap cell and fails the
	// campaign if any verdict diverges from the representative's.
	ValidateMembers int
	// ValidateSeed seeds member sampling. Picks are a pure function of
	// (seed, cell index), so resuming needs no saved stream state.
	ValidateSeed int64
	// CheckpointPath, when non-empty, streams one JSONL record per
	// completed cell to this file. Without Resume the file is
	// truncated; with Resume it must exist and match the campaign's
	// fingerprint, and its completed cells are not re-simulated. A
	// torn final line (a kill mid-write) is cut off before appending.
	CheckpointPath string
	// CheckpointEvery flushes and syncs the checkpoint stream after
	// this many newly-completed cells (<= 0: every cell).
	CheckpointEvery int
	// Resume loads CheckpointPath before running.
	Resume bool
	// HaltAfter, when > 0, cancels the campaign after this many
	// newly-simulated cells and returns ErrCampaignHalted — the
	// test hook for kill-and-resume.
	HaltAfter int
	// OnDone streams per-cell completion progress (runner.Options).
	OnDone func(runner.Progress)
}

// CellRecord is one campaign checkpoint line: the verdict of one cell,
// attributed to every crash point in [Gaps[0], Gaps[1]).
// It carries everything needed to rebuild the cell's Report rows, so a
// resumed campaign reproduces the original report byte for byte.
type CellRecord struct {
	Cell  int    `json:"cell"`
	Class int    `json:"class"` // static class the cell refines (0 in grid mode)
	Gaps  [2]int `json:"gaps"`  // half-open gap interval covered
	Rep   int    `json:"rep"`   // simulated representative gap
	// CrashAt is the simulated instant the representative injection
	// reached (its gap deadline).
	CrashAt          uint64       `json:"crash_at"`
	Consistent       bool         `json:"consistent"`
	Error            string       `json:"error,omitempty"`
	LostCounterLines int          `json:"lost_counter_lines"`
	RecoveredEntries int          `json:"recovered_entries"`
	CorruptLog       int          `json:"corrupt_log"`
	Osiris           RecoveryCost `json:"osiris"`
	// Validated counts the extra member gaps simulated for this cell;
	// all agreed with the representative (divergence aborts instead).
	Validated int `json:"validated"`
}

// CampaignViolation is one inconsistent cell in a campaign report,
// attributed to its whole gap interval.
type CampaignViolation struct {
	Cell    int    `json:"cell"`
	Class   int    `json:"class"`
	Points  [2]int `json:"points"` // gap interval the verdict covers
	CrashAt uint64 `json:"crash_at"`
	Error   string `json:"error"`
}

// CampaignReport is the schema-tagged summary a campaign run emits.
// Counting fields follow Report's convention: explicit zeros when a
// mode makes them trivial, so the wire shape is mode-independent.
type CampaignReport struct {
	Schema   string `json:"schema"`
	Design   string `json:"design"`
	Workload string `json:"workload"`
	Mode     string `json:"mode"` // ModeGrid, ModeExhaustive, or ModePruned
	Ops      int    `json:"ops"`  // zero in ModeGrid
	// CrashPoints is the per-op gap count (ops+1), or GridPoints+1.
	CrashPoints int `json:"crash_points"`
	// Classes is the static partition size; Cells counts classes after
	// epoch refinement — the unit simulated. Both zero in ModeGrid.
	Classes int `json:"classes"`
	Cells   int `json:"cells"`
	// Simulated counts injections run (cells plus validation members);
	// Pruned counts crash points covered without simulation.
	Simulated      int     `json:"simulated"`
	Validated      int     `json:"validated"`
	Pruned         int     `json:"pruned"`
	PrunedFraction float64 `json:"pruned_fraction"`
	// ViolationPoints counts inconsistent crash points (cell verdicts
	// weighted by interval width).
	ViolationPoints int                 `json:"violation_points"`
	Violations      []CampaignViolation `json:"violations"`
	// WallMS is host wall-clock milliseconds, filled by the CLI layer
	// (the library is wall-clock-free for determinism); zero in tests
	// and byte-compares.
	WallMS int64 `json:"wall_ms"`
}

// CampaignRun is everything one RunCampaign call produced.
type CampaignRun struct {
	Report   Report
	Campaign CampaignReport
	// NewlySimulated counts cells simulated by this call — resumed
	// cells excluded — so tests can assert a resume skipped work.
	NewlySimulated int
}

// campaignHeader is the checkpoint's first JSONL record: the campaign
// fingerprint a resume must match. PartitionHash binds the static class
// structure (zero in grid mode), TimelineHash the probe run's deadlines
// and persist epochs (deadlines alone in grid mode); together they
// reject resuming against a different binary, spec, workload, or
// parameterization.
type campaignHeader struct {
	Schema          string         `json:"schema"`
	Spec            string         `json:"spec"`
	Design          string         `json:"design"`
	Workload        string         `json:"workload"`
	Mode            string         `json:"mode"`
	Seed            int64          `json:"seed"`
	Items           int            `json:"items"`
	Ops             int            `json:"ops"`
	OpsPerTx        int            `json:"ops_per_tx"`
	ComputeCycles   uint32         `json:"compute_cycles"`
	TxMode          persist.TxMode `json:"tx_mode"`
	Legacy          bool           `json:"legacy"`
	ValidateMembers int            `json:"validate_members"`
	ValidateSeed    int64          `json:"validate_seed"`
	Cells           int            `json:"cells"`
	PartitionHash   uint64         `json:"partition_hash"`
	TimelineHash    uint64         `json:"timeline_hash"`
}

// campaignCell is one unit of simulation covering the half-open
// crash-point interval [Lo, Hi): an epoch-refined class, a single
// per-op gap, or a single grid point.
type campaignCell struct {
	Index  int
	Class  int
	Lo, Hi int
	Rep    int
}

// RunCampaign sweeps the crash-point space of one workload on one
// machine spec: probe the timing skeleton, derive the cells — per-op
// gaps refined by the static partition and persist epochs, or grid
// points — then inject at each cell representative (plus sampled
// validation members). Per-op campaigns are single-core: the per-op gap
// space of an interleaved multi-core run is not a total order.
func RunCampaign(spec *machine.Spec, w workloads.Workload, p workloads.Params,
	opts CampaignOptions) (*CampaignRun, error) {

	if err := p.Validate(); err != nil {
		return nil, err
	}
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	grid := opts.GridPoints > 0
	switch {
	case grid && (opts.Pruned || opts.ValidateMembers > 0):
		return nil, fmt.Errorf("crash: grid campaigns neither prune nor validate classes")
	case !grid && cfg.NumCores != 1:
		return nil, fmt.Errorf("crash: campaigns are single-core; spec %q has %d cores",
			spec.Name, cfg.NumCores)
	}
	traces := BuildTraces(w, p, cfg.NumCores)

	var sp *crashSpace
	if grid {
		sp, err = gridSpace(spec, traces, opts.GridPoints)
	} else {
		sp, err = perOpSpace(spec, traces, opts.Pruned)
	}
	if err != nil {
		return nil, err
	}
	cells, deadlines := sp.cells, sp.deadlines

	header := campaignHeader{
		Schema:          CheckpointSchema,
		Spec:            spec.Name,
		Design:          cfg.Design.String(),
		Workload:        w.Name(),
		Mode:            sp.mode,
		Seed:            p.Seed,
		Items:           p.Items,
		Ops:             p.Ops,
		OpsPerTx:        p.OpsPerTx,
		ComputeCycles:   p.ComputeCycles,
		TxMode:          p.TxMode,
		Legacy:          p.Legacy,
		ValidateMembers: opts.ValidateMembers,
		ValidateSeed:    opts.ValidateSeed,
		Cells:           len(cells),
		PartitionHash:   sp.partitionHash,
		TimelineHash:    timelineHash(deadlines, sp.epochs),
	}

	done := map[int]CellRecord{}
	var keep int64 // checkpoint bytes a resume keeps: its complete records
	if opts.Resume {
		if opts.CheckpointPath == "" {
			return nil, fmt.Errorf("crash: resume needs a checkpoint path")
		}
		done, keep, err = loadCheckpoint(opts.CheckpointPath, header)
		if err != nil {
			return nil, err
		}
	}
	var ck *checkpoint
	if opts.CheckpointPath != "" {
		ck, err = openCheckpoint(opts.CheckpointPath, header, keep)
		if err != nil {
			return nil, err
		}
		defer ck.f.Close() // error paths; success closes explicitly below
	}

	every := opts.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	var (
		mu         sync.Mutex
		ckErr      error
		sinceFlush int
		newly      int
		halted     bool
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ps := perf.Begin("campaign-sweep")
	rs := runner.Map(ctx, cells,
		func(ctx context.Context, c campaignCell) (CellRecord, error) {
			if rec, ok := done[c.Index]; ok {
				return rec, nil // resumed: checkpointed by a previous run
			}
			res, err := inject(spec, w, traces, deadlines[c.Rep])
			if err != nil {
				return CellRecord{}, err
			}
			rec := CellRecord{
				Cell:             c.Index,
				Class:            c.Class,
				Gaps:             [2]int{c.Lo, c.Hi},
				Rep:              c.Rep,
				CrashAt:          uint64(res.CrashAt),
				Consistent:       res.Consistent(),
				Error:            res.Error,
				LostCounterLines: res.LostCounterLines,
				RecoveredEntries: res.RecoveredEntries,
				CorruptLog:       res.CorruptLog,
				Osiris:           res.Osiris,
			}
			for _, g := range pickMembers(opts.ValidateSeed, c, opts.ValidateMembers) {
				mres, err := inject(spec, w, traces, deadlines[g])
				if err != nil {
					return rec, err
				}
				if err := sameVerdict(res, mres); err != nil {
					return rec, fmt.Errorf(
						"crash: class %d cell %d: gap %d diverges from representative gap %d: %w",
						c.Class, c.Index, g, c.Rep, err)
				}
				rec.Validated++
			}
			mu.Lock()
			defer mu.Unlock()
			if ck != nil && ckErr == nil {
				if err := ck.writeRecord(rec); err != nil {
					ckErr = err
				} else if sinceFlush++; sinceFlush >= every {
					sinceFlush = 0
					ckErr = ck.sync()
				}
			}
			if newly++; opts.HaltAfter > 0 && newly >= opts.HaltAfter && !halted {
				halted = true
				cancel()
			}
			return rec, ckErr
		},
		runner.Options{Workers: opts.Workers, OnDone: opts.OnDone, Label: func(i int) string {
			c := cells[i]
			return fmt.Sprintf("campaign/%s/%s/cell%d[%d,%d)", spec.Name, w.Name(), i, c.Lo, c.Hi)
		}})
	ps.End()

	if ck != nil {
		// A cell abandoned by the halt may still be finishing; closing
		// under the lock (and dropping ck) keeps it off the closed file.
		mu.Lock()
		if err := ck.close(); ckErr == nil {
			ckErr = err
		}
		ck = nil
		err := ckErr
		mu.Unlock()
		if err != nil {
			return nil, err
		}
	}

	recs := make([]CellRecord, len(cells))
	for i, r := range rs {
		if r.Err != nil {
			if halted && errors.Is(r.Err, context.Canceled) {
				continue // cell skipped by the halt, not failed
			}
			return nil, r.Err
		}
		recs[i] = r.Value
	}
	if halted {
		return nil, ErrCampaignHalted
	}
	run := buildRun(cfg.Design, w.Name(), sp, recs)
	run.NewlySimulated = newly
	return run, nil
}

// crashSpace is a campaign's crash-point space: the sorted deadlines,
// the cells that tile them, and what the checkpoint fingerprint binds.
type crashSpace struct {
	mode      string
	deadlines []sim.Time
	cells     []campaignCell
	// Per-op spaces only: the persist epochs that refined the cells,
	// the static partition's class count, and its hash.
	epochs        []sim.Time
	classes       int
	partitionHash uint64
}

// probeRun replays the traces once, uncrashed, on a fresh machine built
// from the spec, recording every op's retire deadline and every instant
// the crash-visible state mutated (the persist epochs). Start+Eng.Run
// (not System.Run) so the post-run flush phase contributes no epochs —
// crashes never happen after the final retire.
func probeRun(spec *machine.Spec, traces []*trace.Trace) (*replay.System, []sim.Time, error) {
	defer perf.Begin("campaign-probe").End()
	m, err := machine.Build(spec)
	if err != nil {
		return nil, nil, err
	}
	probe, err := replay.NewMachine(m, traces)
	if err != nil {
		return nil, nil, err
	}
	var epochs []sim.Time
	probe.RecordRetireTimes()
	probe.MC.SetPersistEpochSink(func(t sim.Time) {
		if n := len(epochs); n == 0 || epochs[n-1] != t {
			epochs = append(epochs, t)
		}
	})
	probe.Start()
	probe.Eng.Run()
	if probe.RuntimeSoFar() == 0 {
		return nil, nil, fmt.Errorf("crash: empty run")
	}
	return probe, epochs, nil
}

// gridSpace spreads n+1 deadlines over the probe run, one per cell:
// i·end/n for i = 0..n, where end is the probe run's last retire.
func gridSpace(spec *machine.Spec, traces []*trace.Trace, n int) (*crashSpace, error) {
	probe, _, err := probeRun(spec, traces)
	if err != nil {
		return nil, err
	}
	end := uint64(probe.RuntimeSoFar())
	sp := &crashSpace{mode: ModeGrid}
	for i := 0; i <= n; i++ {
		sp.deadlines = append(sp.deadlines, sim.Time(end*uint64(i)/uint64(n)))
		sp.cells = append(sp.cells, campaignCell{Index: i, Lo: i, Hi: i + 1, Rep: i})
	}
	return sp, nil
}

// perOpSpace derives the per-op gap deadlines from a recording probe
// run, computes and checks the static partition, and tiles the gaps
// with cells: one per gap, or epoch-refined classes when pruned.
func perOpSpace(spec *machine.Spec, traces []*trace.Trace, pruned bool) (*crashSpace, error) {
	probe, epochs, err := probeRun(spec, traces)
	if err != nil {
		return nil, err
	}
	retire := probe.RetireTimes(0)
	if len(retire) != traces[0].Len() {
		return nil, fmt.Errorf("crash: probe retired %d of %d ops", len(retire), traces[0].Len())
	}
	deadlines := make([]sim.Time, len(retire)+1)
	copy(deadlines[1:], retire) // deadlines[0] = 0: crash before any op

	// Static partition, self-checked: a campaign never trusts an
	// unverified class structure, even one it just computed.
	defer perf.Begin("campaign-classes").End()
	part, err := prune.Compute(traces[0], prune.Options{})
	if err != nil {
		return nil, err
	}
	if err := prune.Check(traces[0], part, prune.Options{}); err != nil {
		return nil, fmt.Errorf("crash: partition failed its own check: %w", err)
	}
	mode := ModeExhaustive
	if pruned {
		mode = ModePruned
	}
	return &crashSpace{
		mode:          mode,
		deadlines:     deadlines,
		cells:         refineCells(part, deadlines, epochs, pruned),
		epochs:        epochs,
		classes:       len(part.Classes),
		partitionHash: part.Hash(),
	}, nil
}

// refineCells splits every static class at the persist-epoch instants
// observed by the probe run. Gaps k and k+1 may merge only when no
// epoch e satisfies t(k) < e <= t(k+1): the crash-visible state did not
// mutate between the two deadlines, so the images are identical and the
// static class's abstract equality extends to concrete equality.
// Without pruning every gap is its own cell.
func refineCells(part *prune.Partition, deadlines, epochs []sim.Time, pruned bool) []campaignCell {
	var cells []campaignCell
	for _, cl := range part.Classes {
		lo := cl.Gaps[0]
		for k := cl.Gaps[0]; k+1 < cl.Gaps[1]; k++ {
			if !pruned || epochBetween(epochs, deadlines[k], deadlines[k+1]) {
				cells = append(cells, campaignCell{Index: len(cells), Class: cl.Index, Lo: lo, Hi: k + 1, Rep: lo})
				lo = k + 1
			}
		}
		cells = append(cells, campaignCell{Index: len(cells), Class: cl.Index, Lo: lo, Hi: cl.Gaps[1], Rep: lo})
	}
	return cells
}

// epochBetween reports whether any epoch e satisfies a < e <= b.
// epochs is sorted ascending (the sink records event times in order).
func epochBetween(epochs []sim.Time, a, b sim.Time) bool {
	i := sort.Search(len(epochs), func(i int) bool { return epochs[i] > a })
	return i < len(epochs) && epochs[i] <= b
}

// timelineHash fingerprints the probe run's timing skeleton.
func timelineHash(deadlines, epochs []sim.Time) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(t sim.Time) {
		binary.LittleEndian.PutUint64(buf[:], uint64(t))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(len(deadlines)))
	h.Write(buf[:])
	for _, t := range deadlines {
		put(t)
	}
	for _, t := range epochs {
		put(t)
	}
	return h.Sum64()
}

// splitmix64 is the standard 64-bit mixer — a tiny deterministic stream
// so member sampling depends on nothing but (seed, cell index); the
// simulator bans math/rand and wall-clock sources in library code.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// pickMembers samples up to k distinct non-representative gaps of the
// cell, sorted ascending. Deterministic in (seed, cell index).
func pickMembers(seed int64, c campaignCell, k int) []int {
	width := c.Hi - c.Lo - 1 // members other than the representative
	if k <= 0 || width <= 0 {
		return nil
	}
	if k > width {
		k = width
	}
	state := uint64(seed) ^ (uint64(c.Index+1) * 0x9E3779B97F4A7C15)
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for tries := 0; len(out) < k && tries < 16*(k+1); tries++ {
		g := c.Lo + 1 + int(splitmix64(&state)%uint64(width))
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	sort.Ints(out)
	return out
}

// sameVerdict compares a validation member's result to its
// representative's on every report-visible dimension.
func sameVerdict(rep, member Result) error {
	switch {
	case rep.Consistent() != member.Consistent():
		return fmt.Errorf("consistent %v vs %v", rep.Consistent(), member.Consistent())
	case rep.Error != member.Error:
		return fmt.Errorf("error %q vs %q", rep.Error, member.Error)
	case rep.LostCounterLines != member.LostCounterLines:
		return fmt.Errorf("lost counter lines %d vs %d", rep.LostCounterLines, member.LostCounterLines)
	case rep.RecoveredEntries != member.RecoveredEntries:
		return fmt.Errorf("recovered entries %d vs %d", rep.RecoveredEntries, member.RecoveredEntries)
	case rep.CorruptLog != member.CorruptLog:
		return fmt.Errorf("corrupt log entries %d vs %d", rep.CorruptLog, member.CorruptLog)
	case rep.Osiris != member.Osiris:
		return fmt.Errorf("recovery cost %+v vs %+v", rep.Osiris, member.Osiris)
	}
	return nil
}

// buildRun assembles the Report and CampaignReport from the complete
// cell-record set. Records alone determine the output, so a resumed
// campaign — mixing checkpointed and fresh records — reproduces the
// uninterrupted run's reports byte for byte (WallMS excluded; the CLI
// stamps it). A grid space has no partition and no op gaps: its Cells
// and Ops are the convention's literal zeros.
func buildRun(design config.Design, workload string, sp *crashSpace, recs []CellRecord) *CampaignRun {
	points, cells := len(sp.deadlines), len(sp.cells)
	if sp.mode == ModeGrid {
		cells = 0
	}
	rep := Report{
		Design:      design,
		Workload:    workload,
		Mode:        sp.mode,
		CrashPoints: points,
		Classes:     sp.classes,
		Cells:       cells,
	}
	camp := CampaignReport{
		Schema:      ReportSchema,
		Design:      design.String(),
		Workload:    workload,
		Mode:        sp.mode,
		CrashPoints: points,
		Classes:     sp.classes,
		Cells:       cells,
		Violations:  []CampaignViolation{},
	}
	if sp.mode != ModeGrid {
		camp.Ops = points - 1
	}
	for i, c := range sp.cells {
		r := recs[i]
		rep.Validated += r.Validated
		for g := c.Lo; g < c.Hi; g++ {
			rep.Results = append(rep.Results, Result{
				CrashAt:          sp.deadlines[g],
				LostCounterLines: r.LostCounterLines,
				RecoveredEntries: r.RecoveredEntries,
				CorruptLog:       r.CorruptLog,
				Osiris:           r.Osiris,
				Error:            r.Error,
			})
		}
		if !r.Consistent {
			camp.Violations = append(camp.Violations, CampaignViolation{
				Cell:    r.Cell,
				Class:   r.Class,
				Points:  r.Gaps,
				CrashAt: r.CrashAt,
				Error:   r.Error,
			})
			camp.ViolationPoints += c.Hi - c.Lo
		}
	}
	rep.Simulated = len(sp.cells) + rep.Validated
	if sp.mode == ModePruned {
		// Exhaustive and grid cells tile the points one-to-one; they
		// keep the convention's literal zeros.
		rep.Pruned = points - len(sp.cells)
		rep.PrunedFraction = float64(rep.Pruned) / float64(points)
	}
	camp.Simulated = rep.Simulated
	camp.Validated = rep.Validated
	camp.Pruned = rep.Pruned
	camp.PrunedFraction = rep.PrunedFraction
	return &CampaignRun{Report: rep, Campaign: camp}
}
