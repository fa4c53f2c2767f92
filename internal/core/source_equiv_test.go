package core

import (
	"bytes"
	"path/filepath"
	"testing"

	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/trace"
	"encnvm/internal/workloads"
)

// TestBinReplayMatchesMaterialized pins the record/replay path: for
// every workload, replaying the traces decoded from a recorded binary
// trace file must produce a manifest byte-identical to replaying the
// generated traces. Any divergence — a decode bug, an event-ordering
// change from the pre-sizing — shows up as a manifest diff.
func TestBinReplayMatchesMaterialized(t *testing.T) {
	const cores = 2
	dir := t.TempDir()
	p := workloads.Params{Seed: 7, Items: 48, Ops: 10, OpsPerTx: 2, ComputeCycles: 50}.WithDefaults()
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, name+".bin")
			traces := crash.BuildTraces(w, p, cores)
			if err := trace.WriteTracesFile(path, traces); err != nil {
				t.Fatal(err)
			}

			spec, err := machine.ByName("sca")
			if err != nil {
				t.Fatal(err)
			}
			spec.Cores = cores
			build := func() *machine.Machine {
				m, err := machine.Build(spec)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			want, err := Run(build(), name, traces, nil)
			if err != nil {
				t.Fatal(err)
			}

			decoded, err := trace.ReadTracesFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(build(), name, decoded, nil)
			if err != nil {
				t.Fatal(err)
			}

			var wb, gb bytes.Buffer
			if err := BuildManifest(want, p).Encode(&wb); err != nil {
				t.Fatal(err)
			}
			if err := BuildManifest(got, p).Encode(&gb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
				t.Errorf("decoded-file replay manifest differs from generated replay:\n--- generated\n%s\n--- decoded\n%s",
					wb.String(), gb.String())
			}
		})
	}
}
