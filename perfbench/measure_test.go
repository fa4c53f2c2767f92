package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose: 100..1
	}
	pct, v, ok := tailPercentile(xs, 10)
	if !ok || pct != 90 || v != 90 {
		t.Fatalf("100 samples: got p%v = %v (ok=%v), want p90 = 90", pct, v, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("%d samples beyond the tail, want 10", beyond)
	}

	big := make([]float64, 5000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if pct, v, _ := tailPercentile(big, 10); pct != 99.8 || v != 4990 {
		t.Fatalf("5000 samples: got p%v = %v, want p99.8 = 4990", pct, v)
	}
	if _, _, ok := tailPercentile(make([]float64, 10), 10); ok {
		t.Fatal("10 samples cannot leave 10 beyond any rank")
	}
	if pct, _, ok := tailPercentile(make([]float64, 11), 10); !ok || pct != 100.0/11 {
		t.Fatalf("11 samples: got p%v ok=%v, want the lowest rank", pct, ok)
	}
}

func TestUtilization(t *testing.T) {
	for _, c := range []struct {
		busy, wall time.Duration
		workers    int
		want       float64
	}{
		{3 * time.Second, 2 * time.Second, 2, 0.75},
		{2 * time.Second, 2 * time.Second, 1, 1},
		{time.Second, 0, 2, 0},
		{time.Second, time.Second, 0, 0},
	} {
		if got := utilization(c.busy, c.wall, c.workers); got != c.want {
			t.Errorf("utilization(%v, %v, %d) = %v, want %v", c.busy, c.wall, c.workers, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if xs[0] != 4 {
		t.Error("median sorted its input")
	}
	if median(nil) != 0 {
		t.Error("median of nothing")
	}
}

// TestSumOfMinimaTakesEachPartAtItsFastestPass holds the end-to-end
// time estimator: each part's minimum over the passes, summed.
func TestSumOfMinimaTakesEachPartAtItsFastestPass(t *testing.T) {
	ms := func(ns ...int) []time.Duration {
		var out []time.Duration
		for _, n := range ns {
			out = append(out, time.Duration(n)*time.Millisecond)
		}
		return out
	}
	for _, c := range []struct {
		rows [][]time.Duration
		want time.Duration
	}{
		{nil, 0},
		{[][]time.Duration{ms(3, 5)}, 8 * time.Millisecond},
		{[][]time.Duration{ms(3, 5), ms(4, 2), ms(6, 6)}, 5 * time.Millisecond},
		// A failed pass that stopped early still counts for its parts.
		{[][]time.Duration{ms(1), ms(4, 2, 7)}, 10 * time.Millisecond},
	} {
		if got := sumOfMinima(c.rows); got != c.want {
			t.Errorf("sumOfMinima(%v) = %v, want %v", c.rows, got, c.want)
		}
	}
}

// TestPhaseClockFromOnDone derives a campaign's set-up from its OnDone
// records: the first record to complete marks, by its completion time
// minus its Wall, where the sweep began.
func TestPhaseClockFromOnDone(t *testing.T) {
	call := time.Unix(1000, 0)
	ms := func(n int) time.Time { return call.Add(time.Duration(n) * time.Millisecond) }
	pc := phaseClock{call: call}
	// Two workers: the first completion (at 130 ms, 30 ms long) started
	// at 100 ms; a later, longer record that started earlier does not
	// move the boundary.
	pc.done(ms(130), 30*time.Millisecond)
	pc.done(ms(140), 45*time.Millisecond)
	pc.done(ms(170), 40*time.Millisecond)
	setup, timed := pc.split(ms(180))
	if setup != 100*time.Millisecond || timed != 80*time.Millisecond {
		t.Fatalf("split = %v set-up, %v timed; want 100ms, 80ms", setup, timed)
	}

	empty := phaseClock{call: call}
	if setup, timed := empty.split(ms(50)); setup != 50*time.Millisecond || timed != 0 {
		t.Fatalf("campaign without cells: %v, %v", setup, timed)
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"encnvm/internal/cache.(*Cache).Access":                     "encnvm/internal/cache",
		"encnvm/internal/machine/engines.(*sca).Recover":            "encnvm/internal/machine/engines",
		"encnvm/internal/runner.Map[go.shape.struct { a/b.C int }]": "encnvm/internal/runner",
		"encnvm/internal/crash.RunCampaign.func1":                   "encnvm/internal/crash",
		"runtime.mallocgc":                     "runtime",
		"main.(*grid).run":                     "main",
		"compress/flate.(*compressor).deflate": "compress/flate",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// protobuf builds a pprof message field by field.
type protobuf []byte

func (b protobuf) varint(num int, v uint64) protobuf {
	b = binary.AppendUvarint(b, uint64(num)<<3|wireVarint)
	return binary.AppendUvarint(b, v)
}

func (b protobuf) bytes(num int, v []byte) protobuf {
	b = binary.AppendUvarint(b, uint64(num)<<3|wireBytes)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func (b protobuf) packed(num int, vs ...uint64) protobuf {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return b.bytes(num, body)
}

// syntheticProfile encodes a gzipped CPU profile whose samples each
// have a known layer.
func syntheticProfile(t *testing.T) []byte {
	t.Helper()
	names := []string{"", "samples", "count",
		"encnvm/internal/cache.(*Cache).Access", // 3
		"encnvm/internal/replay.(*core).step",   // 4
		"runtime.mallocgc",                      // 5
		"runtime.gcBgMarkWorker",                // 6
		"compress/flate.(*compressor).deflate",  // 7
		"runtime/pprof.profileWriter",           // 8
		"encnvm/internal/exp.Fig12",             // 9
		"main.run",                              // 10
		cellsLabel,                              // 11
		largeLabel,                              // 12
		"small",                                 // 13
	}
	var p protobuf
	const funcs = 11 // names[3:funcs] are function names
	for i := 3; i < funcs; i++ {
		fn := protobuf(nil).varint(funcID, uint64(i)).varint(funcName, uint64(i))
		p = p.bytes(profFunction, fn)
	}
	// Locations: id = function id, except location 20 which holds an
	// inlined pair (mallocgc inlined into Cache.Access).
	for i := 3; i < funcs; i++ {
		line := protobuf(nil).varint(lineFuncID, uint64(i))
		p = p.bytes(profLocation, protobuf(nil).varint(locID, uint64(i)).bytes(locLine, line))
	}
	inl := protobuf(nil).varint(locID, 20).
		bytes(locLine, protobuf(nil).varint(lineFuncID, 5)).
		bytes(locLine, protobuf(nil).varint(lineFuncID, 3))
	p = p.bytes(profLocation, inl)

	// label, when not 0, is the string index of the cells label's value.
	labelled := func(label, count uint64, locs ...uint64) {
		var s protobuf
		if len(locs) > 2 {
			s = s.packed(sampleLocID, locs...)
		} else {
			for _, l := range locs {
				s = s.varint(sampleLocID, l)
			}
		}
		s = s.packed(sampleValue, count, count*10_000_000)
		if label != 0 {
			s = s.bytes(sampleLabel, protobuf(nil).varint(labelKey, 11).varint(labelStr, label))
		}
		p = p.bytes(profSample, s)
	}
	sample := func(count uint64, locs ...uint64) { labelled(0, count, locs...) }
	labelled(12, 5, 5, 3, 4) // mallocgc <- Cache.Access <- step, in a large cell: cache
	labelled(13, 2, 20, 4)   // inlined mallocgc in Cache.Access, in a small cell: cache
	labelled(12, 3, 4, 10)   // step <- main.run, in a large cell: replay
	sample(4, 6)             // GC worker: runtime
	sample(1, 7, 8)          // pprof writer: unattributed
	sample(6, 5, 9, 10)      // exp is a repository package without its own layer: other
	sample(7, 10)            // the benchmark itself
	for _, s := range names {
		p = p.bytes(profString, []byte(s))
	}

	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributeSyntheticProfile(t *testing.T) {
	shares, err := attributeProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"cache": 7, "replay": 3, "runtime": 4, "unattributed": 1, "other": 6, "bench": 7}
	total := int64(0)
	for layer, n := range shares.all {
		total += n
		if want[layer] != n {
			t.Errorf("layer %s: %d samples, want %d", layer, n, want[layer])
		}
	}
	if total != 28 {
		t.Errorf("shares cover %d samples, want all 28", total)
	}
	if len(shares.large) != 2 || shares.large["cache"] != 5 || shares.large["replay"] != 3 {
		t.Errorf("large-cell shares %v, want cache 5 and replay 3", shares.large)
	}
	for layer := range want {
		found := false
		for _, l := range knownLayers {
			found = found || l == layer
		}
		if !found {
			t.Errorf("layer %s has no cpu_frac metric", layer)
		}
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{{0x12, 0xff}, {0x0b}, {0x12, 0x05, 0x01}} {
		if _, err := attributeProfile(b); err == nil {
			t.Errorf("decoded %x without error", b)
		}
	}
}
