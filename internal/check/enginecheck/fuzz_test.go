package enginecheck

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"encnvm/internal/config"
)

// FuzzReplayFile decodes arbitrary bytes as an enginecheck
// counterexample file and replays it: decoding and Replay must never
// panic, whatever trace, arenas, model or schedule the bytes describe.
// The corpus is seeded with counterexample files written the way
// persistcheck writes them: each mutant's first finding and its first
// V-rule finding, which carries the abstract trace and schedule.
func FuzzReplayFile(f *testing.F) {
	dir := f.TempDir()
	for _, m := range Mutants() {
		rep := Check(m.Engine, nil)
		seeds := []Finding{rep.Findings[0]}
		for _, fd := range rep.Findings {
			if fd.Violation != nil {
				seeds = append(seeds, fd)
				break
			}
		}
		for i, fd := range seeds {
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", m.Engine.Name, i))
			model := ModelFor(m.Engine, config.Default(m.Engine.Design))
			if err := NewFile(m.Engine.Name, fd, model).WriteFile(path); err != nil {
				f.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var cex File // ReadFile's decode
		if json.Unmarshal(b, &cex) != nil {
			return
		}
		_ = cex.Replay()
	})
}
