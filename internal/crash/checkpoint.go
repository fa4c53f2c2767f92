// Campaign checkpoints: an append-only JSONL stream — one header line
// (the campaign fingerprint), then one CellRecord line per completed
// cell. The file is the simulator's own crash-consistency problem: a
// kill can land mid-write, and a full bufio buffer is written out
// wherever it happens to end, so the last line may be torn. A record
// is complete exactly when its newline is on disk; a resume keeps the
// complete records and cuts everything after them before appending.

package crash

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// checkpoint is an open checkpoint stream.
type checkpoint struct {
	f *os.File
	w *bufio.Writer
}

// openCheckpoint opens the stream for appending after its first keep
// bytes, cutting anything beyond them (a torn tail). keep == 0 starts a
// fresh stream with the campaign header.
func openCheckpoint(path string, header campaignHeader, keep int64) (*checkpoint, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("crash: checkpoint: %w", err)
	}
	ck := &checkpoint{f: f, w: bufio.NewWriter(f)}
	if err := f.Truncate(keep); err != nil {
		f.Close()
		return nil, fmt.Errorf("crash: checkpoint: %w", err)
	}
	if keep == 0 {
		if err := ck.writeRecord(header); err != nil {
			f.Close()
			return nil, err
		}
	}
	return ck, nil
}

// writeRecord buffers one compact JSON record and its newline.
func (c *checkpoint) writeRecord(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("crash: checkpoint: %w", err)
	}
	if _, err := c.w.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("crash: checkpoint: %w", err)
	}
	return nil
}

// sync makes every buffered record durable: flush, then fsync.
func (c *checkpoint) sync() error {
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("crash: checkpoint: %w", err)
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("crash: checkpoint: %w", err)
	}
	return nil
}

// close syncs and closes the stream, reporting the first error.
func (c *checkpoint) close() error {
	err := c.sync()
	if cerr := c.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("crash: checkpoint: %w", cerr)
	}
	return err
}

// loadCheckpoint reads a checkpoint file for resume: see
// decodeCheckpoint.
func loadCheckpoint(path string, want campaignHeader) (map[int]CellRecord, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("crash: resume: %w", err)
	}
	defer f.Close()
	done, keep, err := decodeCheckpoint(f, want)
	if err != nil {
		return nil, 0, fmt.Errorf("crash: resume %s: %w", path, err)
	}
	return done, keep, nil
}

// decodeCheckpoint reads a checkpoint stream, validates its header
// against the campaign fingerprint, and returns the completed cells
// plus the byte length of the stream's complete-record prefix. A torn
// final line is not an error: it is left out of both. A torn header
// means no cell completed, so the prefix is empty and a resume starts
// fresh. Malformed complete lines are errors; no input panics.
func decodeCheckpoint(r io.Reader, want campaignHeader) (map[int]CellRecord, int64, error) {
	br := bufio.NewReader(r)
	done := make(map[int]CellRecord)
	var keep int64
	for line := 1; ; line++ {
		b, err := br.ReadBytes('\n')
		if errors.Is(err, io.EOF) {
			return done, keep, nil // b, if any, is a torn final line
		}
		if err != nil {
			return nil, 0, err
		}
		if line == 1 {
			var have campaignHeader
			if err := json.Unmarshal(b, &have); err != nil {
				return nil, 0, fmt.Errorf("header: %w", err)
			}
			if have != want {
				return nil, 0, fmt.Errorf("checkpoint fingerprint mismatch: campaign is %+v, checkpoint holds %+v",
					want, have)
			}
		} else {
			var rec CellRecord
			if err := json.Unmarshal(b, &rec); err != nil {
				return nil, 0, fmt.Errorf("line %d: %w", line, err)
			}
			if rec.Cell < 0 || rec.Cell >= want.Cells {
				return nil, 0, fmt.Errorf("line %d: cell %d outside [0,%d)", line, rec.Cell, want.Cells)
			}
			done[rec.Cell] = rec
		}
		keep += int64(len(b))
	}
}
