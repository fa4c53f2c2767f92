// Package core is the library facade: it wires a workload and a machine
// into a full simulated system — software runtime, cores, caches,
// encrypted memory controller, PCM device — runs it, and returns the
// measurements the paper's figures are built from. Crash injection
// lives in crash.RunCampaign.
//
// Typical use:
//
//	spec, _ := machine.ByName("sca")
//	spec.Cores = 4
//	res, err := core.RunWorkload(core.Options{Spec: spec, Workload: "btree"})
//	fmt.Println(res.Runtime, res.Throughput)
package core

import (
	"fmt"

	"encnvm/internal/config"
	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/perf"
	"encnvm/internal/persist"
	"encnvm/internal/probe"
	"encnvm/internal/replay"
	"encnvm/internal/sim"
	"encnvm/internal/stats"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// Options selects what RunWorkload simulates.
type Options struct {
	// Spec is the machine; nil is an error. Design names resolve
	// through machine.ByName, and sensitivity studies edit a resolved
	// spec's sizing fields.
	Spec     *machine.Spec
	Workload string // one of workloads.Names()
	Params   workloads.Params
	// Probe, when non-nil, attaches the observability layer (timeline,
	// windowed metrics) to the run. The caller owns Probe.Close.
	Probe *probe.Probe
}

// Result carries the measurements of one run.
type Result struct {
	Design       config.Design
	Workload     string
	Cores        int
	Runtime      sim.Time // measured (transaction-phase) runtime
	TotalRuntime sim.Time // including the setup phase
	Transactions int
	Throughput   float64 // transactions per simulated second
	BytesWritten uint64  // NVM write traffic, data + counters
	Stats        *stats.Stats
	System       *replay.System // post-run system, for deeper inspection
}

// RunWorkload generates the workload's traces and replays them on the
// machine the spec describes.
func RunWorkload(o Options) (Result, error) {
	if o.Spec == nil {
		return Result{}, fmt.Errorf("core: Options.Spec is nil")
	}
	if err := o.Params.Validate(); err != nil {
		return Result{}, err
	}
	w, err := workloads.ByName(o.Workload)
	if err != nil {
		return Result{}, err
	}
	m, err := machine.Build(o.Spec)
	if err != nil {
		return Result{}, err
	}
	traces := crash.BuildTraces(w, o.Params.WithDefaults(), m.Cfg.NumCores)
	return Run(m, w.Name(), traces, o.Probe)
}

// RunTraces replays pre-built traces under the given configuration,
// used verbatim (machine.FromConfig). Using the same traces across
// designs gives the controlled comparison the paper's figures rely on.
func RunTraces(cfg *config.Config, workload string, traces []*trace.Trace) (Result, error) {
	m, err := machine.FromConfig(cfg)
	if err != nil {
		return Result{}, err
	}
	return Run(m, workload, traces, nil)
}

// Run replays one trace per core — generated, or decoded from a binary
// trace file — on an assembled machine, drives it to completion, and
// collects the measurements. A non-nil probe observes the run; the
// caller finalizes it with Close after inspecting the result.
func Run(m *machine.Machine, workload string, traces []*trace.Trace, pb *probe.Probe) (Result, error) {
	sys, err := replay.NewMachine(m, traces)
	if err != nil {
		return Result{}, err
	}
	// Timing-only runs need no per-write history; dropping it bounds
	// memory on publication-scale sweeps.
	sys.Dev.Image().SetRetainLog(false)
	sys.AttachProbe(pb)
	r := perf.Begin("replay")
	rt := sys.Run()
	r.End()
	return Result{
		Design:       sys.Cfg.Design,
		Workload:     workload,
		Cores:        sys.Cfg.NumCores,
		Runtime:      sys.MeasuredRuntime(),
		TotalRuntime: rt,
		Transactions: sys.Transactions(),
		Throughput:   sys.Throughput(),
		BytesWritten: sys.St.TotalBytesWritten(),
		Stats:        sys.St,
		System:       sys,
	}, nil
}

// VerifyResult runs the workload's validator over the final (decrypted)
// NVM image of a completed run — an end-to-end functional check that the
// whole stack (encryption, queues, flush) preserved the data. Every core's
// arena must hold the workload's published structure: Setup writes its
// magic word, so an image without one ran some other workload.
func VerifyResult(res Result) error {
	defer perf.Begin("verify").End()
	w, err := workloads.ByName(res.Workload)
	if err != nil {
		return err
	}
	sys := res.System
	if sys == nil {
		return fmt.Errorf("core: result carries no system")
	}
	snapshot := sys.Dev.Image().SnapshotAt(sys.Dev.Image().LastWrite())
	space := crash.DecryptImage(sys.MC.Layout(), sys.MC.Encryption(), snapshot)
	for i := 0; i < res.Cores; i++ {
		arena := persist.ArenaFor(i, crash.DefaultArena)
		if !w.Published(space, arena) {
			return fmt.Errorf("core %d: no published %s structure in the final image", i, w.Name())
		}
		if err := w.Validate(space, arena); err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
	}
	return nil
}
