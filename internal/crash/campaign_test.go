package crash

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"encnvm/internal/machine"
	"encnvm/internal/workloads"
)

var campaignParams = workloads.Params{Seed: 7, Items: 6, Ops: 6, OpsPerTx: 1, ComputeCycles: 20}

func campaignSpec(t testing.TB, name string) *machine.Spec {
	t.Helper()
	spec, err := machine.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// marshalRun renders a run's reports with wall-clock fields zeroed —
// the byte-comparison form the kill-and-resume contract is stated in.
func marshalRun(t *testing.T, run *CampaignRun) string {
	t.Helper()
	camp := run.Campaign
	camp.WallMS = 0
	b1, err := json.Marshal(run.Report)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(camp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b1) + "\n" + string(b2)
}

// campaignGolden runs one per-op campaign and requires its
// CampaignReport, wall_ms zeroed, to equal testdata/perop_<name>.json
// byte for byte. Unlike the grid goldens, these reports carry the static
// class count, the epoch-refined cell count and every violation's class.
func campaignGolden(t *testing.T, spec *machine.Spec, w workloads.Workload, p workloads.Params,
	opts CampaignOptions, name string) *CampaignRun {
	t.Helper()
	run, err := RunCampaign(spec, w, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	camp := run.Campaign
	camp.WallMS = 0
	got, err := json.MarshalIndent(camp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "perop_"+name+".json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got = append(got, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("workers=%d: campaign report differs from %s:\n%s", opts.Workers, path, got)
	}
	return run
}

// Pruning must be invisible in the verdicts: a pruned campaign's
// per-gap results — verdicts attributed from cell representatives —
// must equal the exhaustive campaign's, for passing and failing
// designs alike. Both reports are pinned at 1 and 4 workers.
func TestCampaignPrunedMatchesExhaustive(t *testing.T) {
	cases := []struct {
		design string
		w      workloads.Workload
		p      workloads.Params
		golden string
	}{
		{"sca", &workloads.Queue{}, campaignParams, "sca-queue"},
		{"sca", &workloads.ArraySwap{}, campaignParams, "sca-arrayswap"},
		{"ideal", &workloads.ArraySwap{}, func() workloads.Params {
			p := campaignParams
			p.Legacy = true // the §2.2 failure: verdict attribution must survive violations
			return p
		}(), "ideal-arrayswap-legacy"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.design+"/"+tc.w.Name(), func(t *testing.T) {
			t.Parallel()
			spec := campaignSpec(t, tc.design)
			for _, workers := range []int{1, 4} {
				exRun := campaignGolden(t, spec, tc.w, tc.p,
					CampaignOptions{Workers: workers}, tc.golden+"-exhaustive")
				prRun := campaignGolden(t, spec, tc.w, tc.p,
					CampaignOptions{Pruned: true, Workers: workers}, tc.golden+"-pruned")
				checkPrunedMatchesExhaustive(t, exRun.Report, prRun.Report)
			}
		})
	}
}

func checkPrunedMatchesExhaustive(t *testing.T, ex, pr Report) {
	t.Helper()
	if len(ex.Results) != ex.CrashPoints || len(pr.Results) != pr.CrashPoints ||
		ex.CrashPoints != pr.CrashPoints {
		t.Fatalf("crash points: exhaustive %d/%d, pruned %d/%d",
			len(ex.Results), ex.CrashPoints, len(pr.Results), pr.CrashPoints)
	}
	for i := range ex.Results {
		if err := sameVerdict(ex.Results[i], pr.Results[i]); err != nil {
			t.Fatalf("gap %d (crash at %v): pruned verdict diverges: %v",
				i, ex.Results[i].CrashAt, err)
		}
		if ex.Results[i].CrashAt != pr.Results[i].CrashAt {
			t.Fatalf("gap %d deadline %v vs %v", i, ex.Results[i].CrashAt, pr.Results[i].CrashAt)
		}
	}
	if pr.Cells >= pr.CrashPoints {
		t.Errorf("pruning merged nothing: %d cells for %d points", pr.Cells, pr.CrashPoints)
	}
	if ex.Pruned != 0 || ex.PrunedFraction != 0 {
		t.Errorf("exhaustive report claims pruning: %+v", ex)
	}
	if pr.Pruned != pr.CrashPoints-pr.Cells {
		t.Errorf("pruned count %d, want %d", pr.Pruned, pr.CrashPoints-pr.Cells)
	}
}

// -validate-classes: sampled members must agree with representatives.
// The report is pinned at 1 and 4 workers.
func TestCampaignValidateClasses(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 4} {
		run := campaignGolden(t, campaignSpec(t, "sca"), &workloads.Queue{}, campaignParams,
			CampaignOptions{Pruned: true, ValidateMembers: 2, ValidateSeed: 3, Workers: workers},
			"sca-queue-validated")
		if run.Report.Validated == 0 {
			t.Fatal("validation simulated no members")
		}
		if got := run.Report.Simulated; got != run.Report.Cells+run.Report.Validated {
			t.Errorf("simulated %d, want cells %d + validated %d",
				got, run.Report.Cells, run.Report.Validated)
		}
	}
}

// A negative size is an error up front, before any trace is built.
func TestRunCampaignRejectsNegativeParams(t *testing.T) {
	spec := campaignSpec(t, "sca")
	for _, p := range []workloads.Params{{Items: -1}, {Ops: -1}, {OpsPerTx: -1}} {
		if _, err := RunCampaign(spec, &workloads.ArraySwap{}, p, CampaignOptions{GridPoints: 4}); err == nil {
			t.Errorf("%+v accepted", p)
		}
	}
}

// A halted campaign must resume from its checkpoint and reproduce the
// uninterrupted run's reports byte for byte, without re-simulating
// completed cells.
func TestCampaignKillAndResume(t *testing.T) {
	t.Parallel()
	spec := campaignSpec(t, "sca")
	w := &workloads.Queue{}
	full, err := RunCampaign(spec, w, campaignParams,
		CampaignOptions{Pruned: true, ValidateMembers: 1})
	if err != nil {
		t.Fatal(err)
	}

	ck := filepath.Join(t.TempDir(), "campaign.jsonl")
	_, err = RunCampaign(spec, w, campaignParams, CampaignOptions{
		Pruned: true, ValidateMembers: 1,
		CheckpointPath: ck, CheckpointEvery: 2, HaltAfter: 3,
	})
	if !errors.Is(err, ErrCampaignHalted) {
		t.Fatalf("halted run returned %v, want ErrCampaignHalted", err)
	}

	resumed, err := RunCampaign(spec, w, campaignParams, CampaignOptions{
		Pruned: true, ValidateMembers: 1,
		CheckpointPath: ck, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.NewlySimulated >= full.Report.Cells {
		t.Errorf("resume re-simulated everything: %d new of %d cells",
			resumed.NewlySimulated, full.Report.Cells)
	}
	if got, want := marshalRun(t, resumed), marshalRun(t, full); got != want {
		t.Errorf("resumed reports differ from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}

// A checkpoint binds its campaign fingerprint; resuming under different
// parameters must be rejected, not silently blended.
func TestCampaignResumeFingerprintMismatch(t *testing.T) {
	t.Parallel()
	spec := campaignSpec(t, "sca")
	w := &workloads.ArraySwap{}
	ck := filepath.Join(t.TempDir(), "campaign.jsonl")
	_, err := RunCampaign(spec, w, campaignParams,
		CampaignOptions{Pruned: true, CheckpointPath: ck, HaltAfter: 1})
	if !errors.Is(err, ErrCampaignHalted) {
		t.Fatalf("halted run returned %v", err)
	}
	p := campaignParams
	p.Seed++
	if _, err := RunCampaign(spec, w, p,
		CampaignOptions{Pruned: true, CheckpointPath: ck, Resume: true}); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("reseeded resume returned %v, want fingerprint mismatch", err)
	}
}

func TestCampaignRequiresSingleCore(t *testing.T) {
	spec := campaignSpec(t, "sca")
	spec.Cores = 2
	if _, err := RunCampaign(spec, &workloads.Queue{}, campaignParams, CampaignOptions{}); err == nil {
		t.Fatal("multi-core campaign accepted")
	}
}

// The report wire shape: pruning counters are explicit zeros in every
// mode (absent field == old binary, zero == nothing pruned), while
// per-result errors appear only on inconsistency.
func TestReportWireShape(t *testing.T) {
	b, err := json.Marshal(Report{})
	if err != nil {
		t.Fatal(err)
	}
	line := string(b)
	for _, key := range []string{`"design"`, `"workload"`, `"mode"`, `"crash_points":0`,
		`"simulated":0`, `"classes":0`, `"cells":0`, `"pruned":0`,
		`"pruned_fraction":0`, `"validated":0`} {
		if !strings.Contains(line, key) {
			t.Errorf("empty report %s missing explicit %s", line, key)
		}
	}
	if strings.Contains(line, `"results"`) {
		t.Errorf("empty report carries results: %s", line)
	}

	b, err = json.Marshal(Result{})
	if err != nil {
		t.Fatal(err)
	}
	line = string(b)
	for _, key := range []string{`"crash_at":0`, `"lost_counter_lines":0`,
		`"recovered_entries":0`, `"corrupt_log":0`, `"osiris"`} {
		if !strings.Contains(line, key) {
			t.Errorf("consistent result %s missing %s", line, key)
		}
	}
	if strings.Contains(line, `"error"`) {
		t.Errorf("consistent result carries an error key: %s", line)
	}
	b, err = json.Marshal(Result{Error: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"error":"boom"`) {
		t.Errorf("inconsistent result drops its error: %s", b)
	}
}

// The checkpoint and campaign-report wire shapes other tools consume.
func TestCampaignWireShapes(t *testing.T) {
	b, err := json.Marshal(CellRecord{})
	if err != nil {
		t.Fatal(err)
	}
	line := string(b)
	for _, key := range []string{`"cell":0`, `"class":0`, `"gaps":[0,0]`, `"rep":0`,
		`"crash_at":0`, `"consistent":false`, `"lost_counter_lines":0`,
		`"recovered_entries":0`, `"corrupt_log":0`, `"osiris"`, `"validated":0`} {
		if !strings.Contains(line, key) {
			t.Errorf("cell record %s missing %s", line, key)
		}
	}
	b, err = json.Marshal(CampaignReport{Schema: ReportSchema})
	if err != nil {
		t.Fatal(err)
	}
	line = string(b)
	for _, key := range []string{`"schema":"encnvm/campaign-report/v1"`, `"mode"`,
		`"ops":0`, `"crash_points":0`, `"classes":0`, `"cells":0`, `"simulated":0`,
		`"validated":0`, `"pruned":0`, `"pruned_fraction":0`, `"violation_points":0`,
		`"violations"`, `"wall_ms":0`} {
		if !strings.Contains(line, key) {
			t.Errorf("campaign report %s missing %s", line, key)
		}
	}
}

// Grid campaigns reproduce pinned grid reports byte for byte at every
// worker count. Each testdata/grid_*.json file is the full Report of
// one grid sweep over the same traces, deadlines and per-point
// injections, covering a failing design, a shrunk counter cache,
// Osiris recovery costs and a multi-core run.
func TestGridCampaignGolden(t *testing.T) {
	legacy := smallParams
	legacy.Legacy = true
	legacy.Ops = 24
	cases := []struct {
		name   string
		design string
		edit   func(*machine.Spec)
		w      workloads.Workload
		p      workloads.Params
		points int
	}{
		{"ideal-legacy-queue", "ideal", nil, &workloads.Queue{}, legacy, 16},
		{"sca-hashtable-ctr16k", "sca", func(s *machine.Spec) { s.CounterCacheBytes = 16 << 10 },
			&workloads.HashTable{}, smallParams, 12},
		{"osiris-legacy-btree", "osiris", nil, &workloads.BTree{}, legacy, 12},
		{"sca-2core-rbtree", "sca", func(s *machine.Spec) { s.Cores = 2 }, &workloads.RBTree{}, smallParams, 8},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", "grid_"+tc.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			spec := campaignSpec(t, tc.design)
			if tc.edit != nil {
				tc.edit(spec)
			}
			for _, workers := range []int{1, 4} {
				run, err := RunCampaign(spec, tc.w, tc.p,
					CampaignOptions{GridPoints: tc.points, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.MarshalIndent(run.Report, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if got = append(got, '\n'); !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: grid report differs from testdata:\n%s", workers, got)
				}
				c := run.Campaign
				if c.Mode != ModeGrid || c.Ops != 0 || c.Classes != 0 || c.Cells != 0 ||
					c.Pruned != 0 || c.Validated != 0 ||
					c.CrashPoints != tc.points+1 || c.Simulated != tc.points+1 ||
					c.ViolationPoints != len(run.Report.Failures()) {
					t.Errorf("workers=%d: grid campaign report breaks the conventions: %+v", workers, c)
				}
			}
		})
	}
}

// A grid campaign has no partition to prune or validate.
func TestGridCampaignRejectsClassOptions(t *testing.T) {
	spec := campaignSpec(t, "sca")
	for _, opts := range []CampaignOptions{
		{GridPoints: 4, Pruned: true},
		{GridPoints: 4, ValidateMembers: 1},
	} {
		if _, err := RunCampaign(spec, &workloads.Queue{}, campaignParams, opts); err == nil {
			t.Errorf("%+v accepted", opts)
		}
	}
}

// tornParams keep checkpoint tests small: a few hundred crash points.
var tornParams = workloads.Params{Seed: 7, Items: 4, Ops: 2, OpsPerTx: 1, ComputeCycles: 20}

// checkpointed runs a small queue campaign with a checkpoint at path
// and returns the run and the checkpoint's bytes.
func checkpointed(t testing.TB, path string, opts CampaignOptions) (*CampaignRun, []byte) {
	t.Helper()
	opts.CheckpointPath = path
	run, err := RunCampaign(campaignSpec(t, "sca"), &workloads.Queue{}, tornParams, opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return run, data
}

// checkpointHeader decodes a checkpoint's header line.
func checkpointHeader(t testing.TB, data []byte) campaignHeader {
	t.Helper()
	var h campaignHeader
	if err := json.Unmarshal(data[:bytes.IndexByte(data, '\n')], &h); err != nil {
		t.Fatal(err)
	}
	return h
}

// A checkpoint cut at any byte — a kill mid-flush, or a full write
// buffer spilled mid-record — loads without error and yields exactly
// the records whose newline precedes the cut.
func TestCheckpointTornAtEveryOffset(t *testing.T) {
	t.Parallel()
	_, data := checkpointed(t, filepath.Join(t.TempDir(), "grid.jsonl"), CampaignOptions{GridPoints: 6})
	want := checkpointHeader(t, data)
	for cut := 0; cut <= len(data); cut++ {
		done, keep, err := decodeCheckpoint(bytes.NewReader(data[:cut]), want)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantKeep := int64(bytes.LastIndexByte(data[:cut], '\n') + 1)
		if keep != wantKeep {
			t.Fatalf("cut %d: kept %d bytes, want %d", cut, keep, wantKeep)
		}
		wantDone := map[int]CellRecord{}
		if keep > 0 {
			lines := bytes.SplitAfter(data[:keep], []byte("\n"))
			for _, l := range lines[1 : len(lines)-1] { // header first, "" last
				var rec CellRecord
				if err := json.Unmarshal(l, &rec); err != nil {
					t.Fatal(err)
				}
				wantDone[rec.Cell] = rec
			}
		}
		if !reflect.DeepEqual(done, wantDone) {
			t.Fatalf("cut %d: loaded %d records, want %d", cut, len(done), len(wantDone))
		}
	}
}

// Resuming from a torn checkpoint — cut inside the header, at a record
// boundary, or mid-record — reproduces the uninterrupted reports and
// leaves a checkpoint whose every line is a complete record, for
// per-op and grid campaigns alike.
func TestCampaignResumeFromTornCheckpoint(t *testing.T) {
	t.Parallel()
	for _, opts := range []CampaignOptions{{Pruned: true}, {GridPoints: 6}} {
		dir := t.TempDir()
		full, data := checkpointed(t, filepath.Join(dir, "full.jsonl"), opts)
		cells := full.Report.Simulated // no validation members: one injection per cell
		header := bytes.IndexByte(data, '\n') + 1
		boundary := header + bytes.IndexByte(data[header:], '\n') + 1
		for _, cut := range []struct {
			name string
			at   int
		}{
			{"inside-header", header / 2},
			{"record-boundary", boundary},
			{"mid-record", boundary + (bytes.IndexByte(data[boundary:], '\n')+1)/2},
		} {
			name := fmt.Sprintf("%+v/%s", opts, cut.name)
			ck := filepath.Join(dir, cut.name+".jsonl")
			if err := os.WriteFile(ck, data[:cut.at], 0o644); err != nil {
				t.Fatal(err)
			}
			ropts := opts
			ropts.CheckpointPath, ropts.Resume = ck, true
			resumed, err := RunCampaign(campaignSpec(t, "sca"), &workloads.Queue{}, tornParams, ropts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got, want := marshalRun(t, resumed), marshalRun(t, full); got != want {
				t.Errorf("%s: resumed reports differ from uninterrupted run:\n%s\nvs\n%s", name, got, want)
			}
			after, err := os.ReadFile(ck)
			if err != nil {
				t.Fatal(err)
			}
			done, keep, err := decodeCheckpoint(bytes.NewReader(after), checkpointHeader(t, data))
			if err != nil || keep != int64(len(after)) || len(done) != cells {
				t.Errorf("%s: resumed checkpoint holds %d of %d cells in %d of %d bytes (%v)",
					name, len(done), cells, keep, len(after), err)
			}
		}
	}
}

// FuzzCheckpoint feeds arbitrary bytes to the checkpoint decoder, seeded
// with a real checkpoint (a small grid campaign's, checked in so fuzz
// workers start without simulating): it must never panic, and whatever
// it accepts must be a complete-record prefix holding in-range cells.
func FuzzCheckpoint(f *testing.F) {
	data, err := os.ReadFile(filepath.Join("testdata", "checkpoint_grid.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	want := checkpointHeader(f, data)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		done, keep, err := decodeCheckpoint(bytes.NewReader(b), want)
		if err != nil {
			return
		}
		if keep < 0 || keep > int64(len(b)) || (keep > 0 && b[keep-1] != '\n') {
			t.Fatalf("kept %d bytes of %d: not a complete-record prefix", keep, len(b))
		}
		for cell := range done {
			if cell < 0 || cell >= want.Cells {
				t.Fatalf("accepted cell %d outside [0,%d)", cell, want.Cells)
			}
		}
	})
}
