package main

// pins holds each workload's checked-pass digest at defaultSeed and
// fullSize, and under "<workload>/calibration" the digest of a traced
// run's calibration lines (crash-campaign's static suite). The digests
// cover simulated results only — per-cell simulated runtime, bytes,
// transactions and events; campaign reports without wall_ms; verifier,
// pruner and linter counts — so they move only when the simulation's
// output does. The model is not validated against hardware: a matching
// digest pins self-consistency, not accuracy.
var pins = map[string]string{
	"replay-grid":                "sha256:bd84a1fec7f55baa",
	"crash-campaign":             "sha256:42c2cc9666abfe14",
	"crash-campaign/calibration": "sha256:3be9b829e1e93ccf",
}

// pinFor returns the digest a run must reproduce under name, or "" when
// the seed has none pinned.
func pinFor(name string, seed int64) string {
	if seed != defaultSeed {
		return ""
	}
	return pins[name]
}
