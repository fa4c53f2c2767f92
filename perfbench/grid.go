package main

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"encnvm/internal/config"
	"encnvm/internal/core"
	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/replay"
	"encnvm/internal/sim"
	"encnvm/internal/stats"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// gridDesigns is every registered engine: the paper's seven designs
// plus the two integrity-tree engines.
var gridDesigns = append(append([]config.Design{}, config.AllDesigns...), config.BMT, config.SecPM)

// largeDesigns replay the structure sized past the L2.
var largeDesigns = []config.Design{config.NoEncryption, config.SCA}

// largeWorkload is the structure sized past the simulated 2 MiB L2 of
// one core, as the figure scale's per-workload footprints are: an array
// of 8-byte slots, 1<<19 of them spanning 4 MiB. Its set-up evicts from
// the L2, and its measured phase swaps random slots, half of which miss.
const largeWorkload = "arrayswap"

// largeLabel marks a large cell's CPU profile samples.
const largeLabel = "large"

// gridCell is one replay: a trace set on one design at one core count.
type gridCell struct {
	set    int // index into the pass's trace sets
	design config.Design
	cores  int
}

// grid is the replay-grid workload: the paper's design x workload
// timing grid, replayed one cell after another over traces built once
// per pass and shared by every engine.
type grid struct {
	sets  []gridSet
	cells []gridCell
	// firstTx is, per cell, the simulated time its measured phase
	// starts, as the checked pass found it.
	firstTx []uint64
}

// gridSet is one workload's trace-building recipe.
type gridSet struct {
	w      workloads.Workload
	params workloads.Params
	cores  int // traces built per set; an n-core cell replays the first n
}

func newGrid(seed int64, sz size) *grid {
	g := &grid{}
	for _, w := range workloads.All() {
		g.sets = append(g.sets, gridSet{w: w, cores: 2,
			params: workloads.Params{Seed: seed, Items: sz.GridItems, Ops: sz.GridOps}.WithDefaults()})
		for _, d := range gridDesigns {
			for _, c := range []int{1, 2} {
				g.cells = append(g.cells, gridCell{set: len(g.sets) - 1, design: d, cores: c})
			}
		}
	}
	large, _ := workloads.ByName(largeWorkload)
	g.sets = append(g.sets, gridSet{w: large, cores: 1,
		params: workloads.Params{Seed: seed, Items: sz.LargeItems, Ops: sz.LargeOps}.WithDefaults()})
	for _, d := range largeDesigns {
		g.cells = append(g.cells, gridCell{set: len(g.sets) - 1, design: d, cores: 1})
	}
	return g
}

func (g *grid) name() string { return "replay-grid" }

// gridOut is what one cell reports for the digest.
type gridOut struct {
	runtime, total uint64
	bytes          uint64
	tx             int
	events         uint64
	err            error
}

// isLarge reports whether cell c replays the structure sized past the L2.
func (g *grid) isLarge(c gridCell) bool { return c.set == len(g.sets)-1 }

func (g *grid) run(p *pass) {
	sets := g.buildTraces(p)
	outs := make([]gridOut, len(g.cells))
	p.cells = make([]time.Duration, 0, len(g.cells))
	for i, c := range g.cells {
		traces := sets[c.set][:c.cores]
		for _, tr := range traces {
			p.work += float64(tr.Len())
		}
		c0 := time.Now()
		var err error
		if p.tr != nil {
			err = guard(func() error { return g.tracedCell(p, c, traces, &outs[i]) })
		} else {
			err = guard(func() error { return g.cell(p, c, traces, &outs[i]) })
		}
		d := time.Since(c0)
		outs[i].err = err
		p.cellDone(d, err)
		p.timedPart(d)
	}
	p.timedDone()

	if p.check {
		g.firstTx = make([]uint64, len(g.cells))
		for i, o := range outs {
			g.firstTx[i] = o.total - o.runtime
		}
	}
	for i, c := range g.cells {
		o := outs[i]
		status := "ok"
		if o.err != nil {
			status = "error"
		}
		p.lines = append(p.lines, fmt.Sprintf("%s %s cores=%d runtime=%d total=%d bytes=%d tx=%d events=%d %s",
			g.sets[c.set].w.Name(), c.design, c.cores, o.runtime, o.total, o.bytes, o.tx, o.events, status))
	}
}

// buildTraces is the set-up: every trace set, each one a set-up part.
func (g *grid) buildTraces(p *pass) [][]*trace.Trace {
	sets := make([][]*trace.Trace, len(g.sets))
	genOps := 0
	for i, s := range g.sets {
		t0 := time.Now()
		sp := p.tr.begin("crash.BuildTraces", p.root, -1)
		sets[i] = crash.BuildTraces(s.w, s.params, s.cores)
		p.tr.end(sp)
		p.setupPart(time.Since(t0))
		for _, tr := range sets[i] {
			genOps += tr.Len()
		}
	}
	p.add("gen_ops", float64(genOps))
	return sets
}

// cell replays one cell through core.RunTraces. The checked pass also
// validates the final decrypted image with core.VerifyResult.
func (g *grid) cell(p *pass, c gridCell, traces []*trace.Trace, out *gridOut) error {
	name := g.sets[c.set].w.Name()
	res, err := core.RunTraces(config.Default(c.design).WithCores(c.cores), name, traces)
	if err != nil {
		return err
	}
	sys := res.System
	*out = gridOut{runtime: uint64(res.Runtime), total: uint64(res.TotalRuntime),
		bytes: res.BytesWritten, tx: res.Transactions, events: sys.Eng.Steps()}
	if res.Transactions == 0 || res.Runtime == 0 {
		return fmt.Errorf("%s/%s/%d cores: empty run", name, c.design, c.cores)
	}
	if p.check {
		if err := core.VerifyResult(res); err != nil {
			return fmt.Errorf("%s/%s/%d cores: %w", name, c.design, c.cores, err)
		}
	}
	return nil
}

// tracedCell is cell split into the three calls core.RunTraces makes —
// build the machine, attach replay cores, run — each under its own
// span, with exact allocation counts taken around the build and the
// run, and the simulators' work counts read afterwards. A large cell's
// profile samples carry largeLabel.
func (g *grid) tracedCell(p *pass, c gridCell, traces []*trace.Trace, out *gridOut) error {
	if !g.isLarge(c) {
		return g.tracedReplay(p, c, traces, out)
	}
	var err error
	pprof.Do(context.Background(), pprof.Labels(cellsLabel, largeLabel), func(context.Context) {
		err = g.tracedReplay(p, c, traces, out)
	})
	return err
}

func (g *grid) tracedReplay(p *pass, c gridCell, traces []*trace.Trace, out *gridOut) error {
	t := p.tr
	id := t.cell()
	cs := t.begin("cell", p.root, id)
	defer t.end(cs)

	cfg := config.Default(c.design).WithCores(c.cores)
	b0, o0 := p.allocCounts()
	sp := t.begin("machine.FromConfig", cs, id)
	m, err := machine.FromConfig(cfg)
	t.end(sp)
	b1, o1 := p.allocCounts()
	if err != nil {
		return err
	}
	p.add("build_ns", float64(t.spans[sp].End-t.spans[sp].Start))
	p.add("build_bytes", float64(b1-b0))
	p.add("build_objs", float64(o1-o0))
	p.add("build_calls", 1)
	p.add("builds", 1)

	sp = t.begin("replay.NewMachine", cs, id)
	sys, err := replay.NewMachine(m, traces)
	t.end(sp)
	if err != nil {
		return err
	}
	p.add("attach_ns", float64(t.spans[sp].End-t.spans[sp].Start))
	p.add("attach_calls", 1)

	// As core.RunTraces: timing-only runs keep no per-write history.
	sys.Dev.Image().SetRetainLog(false)
	_, o0 = p.allocCounts()
	sp = t.begin("System.Run", cs, id)
	total := sys.Run()
	t.end(sp)
	_, o1 = p.allocCounts()

	ops := 0
	for _, tr := range traces {
		ops += tr.Len()
	}
	st := sys.St
	p.add("replay_ns", float64(t.spans[sp].End-t.spans[sp].Start))
	p.add("replay_objs", float64(o1-o0))
	p.add("replay_ops", float64(ops))
	p.add("events", float64(sys.Eng.Steps()))
	p.add("l1_hits", float64(st.Count(stats.L1Hits)))
	p.add("l1_accesses", float64(st.Count(stats.L1Hits)+st.Count(stats.L1Misses)))
	p.add("l2_hits", float64(st.Count(stats.L2Hits)))
	p.add("l2_accesses", float64(st.Count(stats.L2Hits)+st.Count(stats.L2Misses)))
	p.add("ctr_hits", float64(st.Count(stats.CounterCacheHits)))
	p.add("ctr_accesses", float64(st.Count(stats.CounterCacheHits)+st.Count(stats.CounterCacheMiss)))
	p.add("encryptions", float64(sys.MC.EncryptedWrites()))
	p.add("nvm_written", float64(st.TotalBytesWritten()))
	p.add("nvm_read", float64(st.Count(stats.BytesRead)))

	*out = gridOut{runtime: uint64(sys.MeasuredRuntime()), total: uint64(total),
		bytes: st.TotalBytesWritten(), tx: sys.Transactions(), events: sys.Eng.Steps()}
	return nil
}

// calibrate replays each large cell once more, stopping at the start of
// its measured phase (the checked pass's runtimes place it) to read the
// L2 counters, so the large cells report their own measured-phase L2
// hit rate: whole-run counts are dominated by set-up's cold misses.
func (g *grid) calibrate(p *pass) {
	var sets [][]*trace.Trace
	for i, c := range g.cells {
		if !g.isLarge(c) {
			continue
		}
		if sets == nil {
			sets = make([][]*trace.Trace, len(g.sets))
			s := g.sets[c.set]
			sets[c.set] = crash.BuildTraces(s.w, s.params, s.cores)
		}
		m, err := machine.FromConfig(config.Default(c.design).WithCores(c.cores))
		if err != nil {
			p.fail("calibration build: %v", err)
			return
		}
		sys, err := replay.NewMachine(m, sets[c.set][:c.cores])
		if err != nil {
			p.fail("calibration attach: %v", err)
			return
		}
		sys.Dev.Image().SetRetainLog(false)
		sys.Start()
		sys.Eng.RunUntil(sim.Time(g.firstTx[i]))
		h0, m0 := sys.St.Count(stats.L2Hits), sys.St.Count(stats.L2Misses)
		sys.Eng.Run()
		h1, m1 := sys.St.Count(stats.L2Hits), sys.St.Count(stats.L2Misses)
		p.add("large_l2_hits", float64(h1-h0))
		p.add("large_l2_accesses", float64(h1-h0+m1-m0))
	}
}
