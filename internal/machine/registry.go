// The spec registry: the named machine table behind the config.Design
// enum. Every registry engine is a machine under its own name — the
// paper's designs keep the CLI names the repo has always used (noenc,
// ideal, colocated, colocatedcc, fca, sca, osiris) — and every front end
// (nvmsim, crashtest, core.Options) looks machines up here. Custom
// machines (sizing, the DRAM backend) are spec files, not registry rows.

package machine

import (
	"fmt"
	"os"
	"strings"

	"encnvm/internal/config"
	"encnvm/internal/machine/engines"
)

// ByName returns a fresh spec for the registry engine with the given
// name.
func ByName(name string) (*Spec, error) {
	if _, err := engines.ByName(name); err != nil {
		return nil, fmt.Errorf("machine: unknown machine %q (valid: %v)", name, Names())
	}
	return &Spec{Name: name, Engine: name}, nil
}

// LoadSpec resolves the machine a front end's flags select: the spec
// file at path when non-empty, else the registered spec named design
// with its core count set to cores.
func LoadSpec(path, design string, cores int) (*Spec, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return DecodeSpec(f)
	}
	spec, err := ByName(design)
	if err != nil {
		return nil, fmt.Errorf("unknown design %q (valid: %s)", design, strings.Join(Names(), "|"))
	}
	spec.Cores = cores
	return spec, nil
}

// Names lists the registered machine names, sorted.
func Names() []string { return engines.Names() }

// SpecForDesign returns the built-in spec implementing the given design
// enum value — the enum is presentation sugar over this table.
func SpecForDesign(d config.Design) (*Spec, error) {
	meta, err := engines.ForDesign(d)
	if err != nil {
		return nil, err
	}
	return ByName(meta.Name)
}
