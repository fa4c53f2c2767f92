package exp

import (
	"fmt"
	"io"

	"encnvm/internal/config"
	"encnvm/internal/workloads"
)

// OsirisResult summarizes the extension study: the Osiris-style design's
// performance relative to SCA and Ideal, and its crash consistency with
// legacy software.
type OsirisResult struct {
	Workloads []string
	// VsSCA[w] = runtime(Osiris)/runtime(SCA); < 1 means Osiris faster.
	VsSCA map[string]float64
	// VsIdeal[w] = runtime(Osiris)/runtime(Ideal).
	VsIdeal map[string]float64
	// LegacyFailures across all workloads' crash sweeps (must be 0).
	LegacyFailures int
	LegacyPoints   int
	// RecoveryTrialsPerLine is the average candidate decryptions per NVM
	// line during recovery — the recovery-time cost the Anubis follow-on
	// targets (1.0 = counters were always current).
	RecoveryTrialsPerLine float64
}

// Osiris regenerates the extension study: the follow-on direction this
// paper spawned replaces software counter-atomicity with ECC-assisted
// counter recovery bounded by a stop-loss write rule. The study answers
// two questions: does it really free legacy software from the §2.2
// failure, and what does it cost relative to SCA?
func Osiris(sc Scale, out io.Writer) (OsirisResult, error) {
	res := OsirisResult{
		VsSCA:   make(map[string]float64),
		VsIdeal: make(map[string]float64),
	}
	tc := newTraceCache(sc)

	// Fan out the (workload × {SCA, Ideal, Osiris}) performance grid.
	designs := []config.Design{config.SCA, config.Ideal, config.Osiris}
	ws := workloads.All()
	rs, err := runDesignGrid(sc, tc, "osiris", ws, designs)
	if err != nil {
		return res, err
	}

	header(out, "Extension: Osiris-style ECC counter recovery (stop-loss window = 4)")
	fmt.Fprintf(out, "%-12s %16s %16s\n", "workload", "vs SCA", "vs Ideal")
	for wi, w := range ws {
		sca, ideal, osi := rs[wi*3], rs[wi*3+1], rs[wi*3+2]
		vsSCA := float64(osi.Runtime) / float64(sca.Runtime)
		vsIdeal := float64(osi.Runtime) / float64(ideal.Runtime)
		res.Workloads = append(res.Workloads, w.Name())
		res.VsSCA[w.Name()] = vsSCA
		res.VsIdeal[w.Name()] = vsIdeal
		fmt.Fprintf(out, "%-12s %15.3fx %15.3fx\n", w.Name(), vsSCA, vsIdeal)
	}

	// Crash consistency with legacy (pre-paper) software. The per-point
	// injections inside each sweep fan out; the report order is fixed.
	p := sc.Params
	p.Items = min(p.Items, 128)
	p.Ops = min(p.Ops, 32)
	p.Legacy = true
	var trials, lines int
	for _, w := range workloads.All() {
		rep, err := gridSweep(sc, config.Osiris, w, p)
		if err != nil {
			return res, err
		}
		res.LegacyFailures += len(rep.Failures())
		res.LegacyPoints += len(rep.Results)
		for _, r := range rep.Results {
			trials += r.Osiris.Trials
			lines += r.Osiris.Lines
		}
	}
	if lines > 0 {
		res.RecoveryTrialsPerLine = float64(trials) / float64(lines)
	}
	fmt.Fprintf(out, "legacy software crash sweeps: %d/%d points inconsistent (0 expected)\n",
		res.LegacyFailures, res.LegacyPoints)
	fmt.Fprintf(out, "recovery cost: %.2f candidate decryptions per line (Anubis's target metric)\n",
		res.RecoveryTrialsPerLine)
	return res, nil
}
