package main

import (
	"encoding/json"
	"fmt"
	"time"

	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/replay"
	"encnvm/internal/runner"
	"encnvm/internal/workloads"
)

// campaignWorkers is the injection parallelism. crash-campaign is the
// only workload that runs more than one worker.
const campaignWorkers = 2

// campaignCase is one pruned per-op crash campaign of the workload.
type campaignCase struct {
	design   string // machine registry name
	workload string
	legacy   bool // pre-paper software: no ccwb, no CounterAtomic
	validate int  // class members re-simulated per cell
	// violating campaigns must report crash points that fail recovery;
	// the others must report none.
	violating bool
}

// campaignCases: the CI campaign (class validation on), the paper's
// §2.2 failure (legacy software, most points violate), and Osiris,
// which recovers by checksum search.
var campaignCases = []campaignCase{
	{design: "sca", workload: "queue", validate: 2},
	{design: "sca", workload: "btree", legacy: true, violating: true},
	{design: "osiris", workload: "hashtable"},
}

// campaigns is the crash-campaign workload: campaignCases, one after
// another, each fanned out over campaignWorkers.
type campaigns struct {
	seed   int64
	cases  []campaignRun
	builds int // machines the calibration builds per case to time one build
	static *staticSuite
}

type campaignRun struct {
	campaignCase
	spec   *machine.Spec
	w      workloads.Workload
	params workloads.Params
}

func newCampaigns(seed int64, sz size) (*campaigns, error) {
	c := &campaigns{seed: seed, builds: sz.CalibrationBuilds, static: newStaticSuite(seed, sz)}
	for _, cc := range campaignCases {
		spec, err := machine.ByName(cc.design)
		if err != nil {
			return nil, err
		}
		w, err := workloads.ByName(cc.workload)
		if err != nil {
			return nil, err
		}
		c.cases = append(c.cases, campaignRun{campaignCase: cc, spec: spec, w: w,
			params: workloads.Params{Seed: seed, Items: sz.CampaignItems, Ops: sz.CampaignOps, Legacy: cc.legacy}.WithDefaults()})
	}
	return c, nil
}

func (c *campaigns) name() string { return "crash-campaign" }

// phaseClock splits one campaign's wall time at the start of its first
// injection: set-up runs from the RunCampaign call to the moment the
// first completed cell started (its completion time minus its Wall),
// the timed phase from there to the return.
type phaseClock struct {
	call, first time.Time
}

// done records one runner OnDone completion at time at.
func (pc *phaseClock) done(at time.Time, wall time.Duration) {
	if pc.first.IsZero() {
		pc.first = at.Add(-wall)
	}
}

// split returns the set-up and timed durations of a campaign that
// returned at end. A campaign that ran no cell is all set-up.
func (pc *phaseClock) split(end time.Time) (setup, timed time.Duration) {
	if pc.first.IsZero() {
		return end.Sub(pc.call), 0
	}
	return pc.first.Sub(pc.call), end.Sub(pc.first)
}

func (c *campaigns) run(p *pass) {
	p.workers = campaignWorkers
	reports := make([]*crash.CampaignReport, len(c.cases))
	for i := range c.cases {
		reports[i] = c.campaign(p, &c.cases[i])
	}
	p.timedDone()

	for i, cc := range c.cases {
		label := cc.label()
		rep := reports[i]
		if rep == nil {
			p.lines = append(p.lines, label+" error")
			continue
		}
		switch {
		case cc.violating && rep.ViolationPoints == 0:
			p.fail("campaign %s: expected violating crash points, found none", label)
		case !cc.violating && rep.ViolationPoints != 0:
			p.fail("campaign %s: %d violating crash points", label, rep.ViolationPoints)
		case cc.validate > 0 && rep.Validated == 0:
			p.fail("campaign %s: class validation simulated no members", label)
		}
		rep.WallMS = 0 // host time is not a simulated result
		b, err := json.Marshal(rep)
		if err != nil {
			p.fail("campaign %s: %v", label, err)
		}
		p.lines = append(p.lines, label+" "+string(b))
	}
}

func (cc campaignCase) label() string {
	return fmt.Sprintf("%s x %s (legacy=%v)", cc.design, cc.workload, cc.legacy)
}

// campaign runs one RunCampaign call, timing its set-up and sweep from
// the runner's OnDone records. A failed campaign returns nil, counted as
// one failed cell unless a failed injection already was.
func (c *campaigns) campaign(p *pass, cc *campaignRun) *crash.CampaignReport {
	t := p.tr
	failed := p.failed
	sp := t.begin("crash.RunCampaign", p.root, -1)
	clock := phaseClock{call: time.Now()}
	opts := crash.CampaignOptions{
		Workers:         campaignWorkers,
		Pruned:          true,
		ValidateMembers: cc.validate,
		ValidateSeed:    c.seed,
		OnDone: func(pr runner.Progress) {
			now := time.Now()
			clock.done(now, pr.Wall)
			p.cellDone(pr.Wall, pr.Err)
			t.record("injection", sp, t.cell(), now.Add(-pr.Wall), now)
		},
	}
	var run *crash.CampaignRun
	err := guard(func() error {
		var err error
		run, err = crash.RunCampaign(cc.spec, cc.w, cc.params, opts)
		return err
	})
	end := time.Now()
	t.end(sp)
	setup, timed := clock.split(end)
	p.setupPart(setup)
	p.timedPart(timed)
	if err != nil {
		if p.failed == failed {
			p.fail("campaign %s: %v", cc.label(), err)
		}
		return nil
	}
	rep := run.Campaign
	p.work += float64(rep.CrashPoints)
	p.add("crash_points", float64(rep.CrashPoints))
	p.add("injections", float64(rep.Simulated))
	p.add("builds", float64(rep.Simulated+1)) // one machine per injection plus the probe run
	p.add("gen_ops", float64(rep.Ops))
	return &rep
}

// calibrate times the machine construction every injection repeats —
// machine.Build plus replay.NewMachine on each campaign's spec — one
// build at a time, with exact allocation counts around each build. The
// campaign sweep's unattributed time is checked against it. It then
// runs the static suite, whose pruner is the one each campaign's set-up
// calls.
func (c *campaigns) calibrate(p *pass) {
	c.calibrateBuilds(p)
	c.static.run(p)
}

func (c *campaigns) calibrateBuilds(p *pass) {
	t := p.tr
	for _, cc := range c.cases {
		traces := crash.BuildTraces(cc.w, cc.params, 1)
		for k := 0; k < c.builds; k++ {
			b0, o0 := p.allocCounts()
			sp := t.begin("machine.Build", -1, -1)
			m, err := machine.Build(cc.spec)
			t.end(sp)
			b1, o1 := p.allocCounts()
			if err != nil {
				p.fail("calibration build: %v", err)
				return
			}
			p.add("build_ns", float64(t.spans[sp].End-t.spans[sp].Start))
			p.add("build_bytes", float64(b1-b0))
			p.add("build_objs", float64(o1-o0))
			p.add("build_calls", 1)
			sp = t.begin("replay.NewMachine", -1, -1)
			_, err = replay.NewMachine(m, traces)
			t.end(sp)
			if err != nil {
				p.fail("calibration attach: %v", err)
				return
			}
			p.add("attach_ns", float64(t.spans[sp].End-t.spans[sp].Start))
			p.add("attach_calls", 1)
		}
	}
}
