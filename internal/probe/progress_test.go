package probe

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"encnvm/internal/runner"
)

// decodeProgress parses a full JSONL stream into records.
func decodeProgress(t *testing.T, data []byte) []ProgressRecord {
	t.Helper()
	var recs []ProgressRecord
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var r ProgressRecord
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("decode: %v (stream: %s)", err, data)
		}
		recs = append(recs, r)
	}
	return recs
}

func TestProgressStreamWithSummary(t *testing.T) {
	var buf bytes.Buffer
	pw := NewProgress(&buf)
	pw.OnDone(runner.Progress{Label: "fig12/sca/btree", Index: 0, Total: 3, Wall: 40 * time.Millisecond})
	pw.OnDone(runner.Progress{Label: "fig12/fca/btree", Index: 1, Total: 3, Wall: 60 * time.Millisecond})
	pw.OnDone(runner.Progress{Label: "fig12/osiris/btree", Index: 2, Total: 3,
		Wall: 10 * time.Millisecond, Err: errors.New("boom")})
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}

	recs := decodeProgress(t, buf.Bytes())
	if len(recs) != 4 {
		t.Fatalf("records = %d, want 3 cells + 1 summary\n%s", len(recs), buf.String())
	}
	for i, r := range recs[:3] {
		if r.Summary {
			t.Errorf("cell record %d marked summary", i)
		}
		if r.Index != i || r.Total != 3 || r.Cell == "" || r.WallMS <= 0 {
			t.Errorf("cell record %d = %+v", i, r)
		}
	}
	if recs[2].Err != "boom" {
		t.Errorf("failed cell err = %q", recs[2].Err)
	}
	sum := recs[3]
	if !sum.Summary {
		t.Fatalf("terminal record is not a summary: %+v", sum)
	}
	if sum.Cells != 3 || sum.OK != 2 || sum.Failed != 1 {
		t.Errorf("summary = %+v, want cells 3 ok 2 failed 1", sum)
	}
	if sum.WallMS < 0 {
		t.Errorf("summary wall_ms = %v", sum.WallMS)
	}
	if sum.Cell != "" {
		t.Errorf("summary carries a cell label: %+v", sum)
	}
}

// The per-cell wire shape predates the summary record; it must stay
// stable for consumers that tail the stream line by line.
func TestProgressCellWireShape(t *testing.T) {
	var buf bytes.Buffer
	NewProgress(&buf).OnDone(runner.Progress{Label: "c", Index: 0, Total: 1, Wall: time.Millisecond})
	line := strings.TrimSpace(buf.String())
	for _, key := range []string{`"cell":"c"`, `"index":0`, `"total":1`, `"wall_ms":1`} {
		if !strings.Contains(line, key) {
			t.Errorf("cell record %s missing %s", line, key)
		}
	}
	if strings.Contains(line, "summary") {
		t.Errorf("cell record leaks summary fields: %s", line)
	}
	if strings.Contains(line, `"err"`) {
		t.Errorf("err present on success: %s", line)
	}
}

func TestProgressEmptyFleetSummary(t *testing.T) {
	var buf bytes.Buffer
	pw := NewProgress(&buf)
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	recs := decodeProgress(t, buf.Bytes())
	if len(recs) != 1 || !recs[0].Summary || recs[0].Cells != 0 || recs[0].OK != 0 {
		t.Fatalf("empty fleet stream = %+v", recs)
	}
}
