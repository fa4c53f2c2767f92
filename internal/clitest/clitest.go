// Package clitest checks a command's output against a golden file. Each
// command under cmd/ exposes run(args, stdout, stderr) int, and its test
// calls Golden with that function, a golden file in testdata/ and the
// arguments.
//
// A golden file holds the command's stdout; when the command writes to
// stderr, a "--- stderr ---" line and stderr follow, and when it exits
// nonzero, a final "--- exit N ---" line. Goldens are recorded once from
// a built binary and never rewritten by a test:
//
//	tool args >o.txt 2>e.txt; code=$?
//	{ cat o.txt
//	  [ -s e.txt ] && { echo '--- stderr ---'; cat e.txt; }
//	  [ $code -ne 0 ] && echo "--- exit $code ---"; } >testdata/name.golden
package clitest

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Runs is how many times Golden runs each invocation. A map ranged while
// printing changes order only when its randomized start lands
// differently; a small map keeps one order in most runs, so a single
// comparison can miss the leak.
const Runs = 16

// RunFunc is a command's main with its arguments, streams and exit code
// lifted out.
type RunFunc func(args []string, stdout, stderr io.Writer) int

// Run runs the command once and returns its streams and exit code
// rendered in golden-file form, and the exit code.
func Run(run RunFunc, args ...string) (string, int) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	out := stdout.String()
	if stderr.Len() > 0 {
		out += "--- stderr ---\n" + stderr.String()
	}
	if code != 0 {
		out += fmt.Sprintf("--- exit %d ---\n", code)
	}
	return out, code
}

// Golden runs the command Runs times in-process, in a subtest named
// after the golden, and requires every rendering to equal
// testdata/golden byte for byte.
func Golden(t *testing.T, run RunFunc, golden string, args ...string) {
	t.Helper()
	t.Run(golden, func(t *testing.T) {
		path := filepath.Join("testdata", golden)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= Runs; i++ {
			if got, _ := Run(run, args...); got != string(want) {
				t.Fatalf("run %d of %q differs from %s: %s", i, args, path, firstDiff(got, string(want)))
			}
		}
	})
}

// firstDiff names the first line on which got and want differ.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(gl), len(wl))
}
