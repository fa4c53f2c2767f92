package stats

import (
	"strings"
	"testing"

	"encnvm/internal/sim"
)

func TestCounters(t *testing.T) {
	s := New()
	if s.Count(DataWrites) != 0 {
		t.Fatal("fresh counter nonzero")
	}
	s.Inc(DataWrites, 3)
	s.Inc(DataWrites, 4)
	if got := s.Count(DataWrites); got != 7 {
		t.Fatalf("count = %d, want 7", got)
	}
}

func TestTimes(t *testing.T) {
	s := New()
	s.AddTime(FenceWait, 100*sim.Nanosecond)
	s.AddTime(FenceWait, 50*sim.Nanosecond)
	if got := s.Time(FenceWait); got != 150*sim.Nanosecond {
		t.Fatalf("time = %v", got)
	}
}

func TestHitRate(t *testing.T) {
	s := New()
	if s.HitRate(L1Hits, L1Misses) != 0 {
		t.Fatal("empty hit rate nonzero")
	}
	s.Inc(L1Hits, 3)
	s.Inc(L1Misses, 1)
	if got := s.HitRate(L1Hits, L1Misses); got != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", got)
	}
}

func TestLatencyDistribution(t *testing.T) {
	s := New()
	if s.Latency(AcceptDelay) != nil {
		t.Fatal("nonexistent latency non-nil")
	}
	for _, d := range []sim.Time{10, 20, 30} {
		s.Observe(AcceptDelay, d)
	}
	l := s.Latency(AcceptDelay)
	if l.Count() != 3 || l.Mean() != 20 || l.Min() != 10 || l.Max() != 30 || l.Sum() != 60 {
		t.Fatalf("latency = n%d mean%d min%d max%d sum%d", l.Count(), l.Mean(), l.Min(), l.Max(), l.Sum())
	}
}

func TestEmptyLatencyAccessors(t *testing.T) {
	var l Latency
	if l.Mean() != 0 || l.Min() != 0 || l.Max() != 0 {
		t.Fatal("empty latency accessors nonzero")
	}
}

func TestTotalBytesWritten(t *testing.T) {
	s := New()
	s.Inc(DataBytesWritten, 640)
	s.Inc(CounterBytesWritten, 64)
	if got := s.TotalBytesWritten(); got != 704 {
		t.Fatalf("total = %d", got)
	}
}

// TestZeroBumpListed pins that a name bumped only by zero is listed, as
// the name of a counter or bucket the run touched, while names never
// bumped are not.
func TestZeroBumpListed(t *testing.T) {
	s := New()
	s.Inc(WriteQueueStalls, 0)
	s.AddTime(FenceWait, 0)
	c := s.Counters()
	if v, ok := c[WriteQueueStalls.String()]; !ok || v != 0 || len(c) != 1 {
		t.Fatalf("Counters() = %v, want only %s = 0", c, WriteQueueStalls)
	}
	if tm := s.Times(); len(tm) != 1 {
		t.Fatalf("Times() = %v, want only %s", tm, FenceWait)
	}
	if len(s.Latencies()) != 0 {
		t.Fatal("Latencies() lists a distribution with no samples")
	}
	if !strings.Contains(s.String(), WriteQueueStalls.String()) {
		t.Fatalf("String() misses the zero bump:\n%s", s)
	}
}

// TestNamesDistinct requires every slot to carry its own name: two
// slots sharing one would merge in a manifest.
func TestNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	var names []string
	for c := Counter(0); c < numCounters; c++ {
		names = append(names, c.String())
	}
	for b := Bucket(0); b < numBuckets; b++ {
		names = append(names, b.String())
	}
	for d := Dist(0); d < numDists; d++ {
		names = append(names, d.String())
	}
	for _, n := range names {
		if n == "" || seen[n] {
			t.Fatalf("name %q empty or used twice", n)
		}
		seen[n] = true
	}
}

func TestString(t *testing.T) {
	s := New()
	s.Inc(Reads, 1)
	s.Inc(CCWBs, 2)
	s.Inc(L1Hits, 3)
	s.Inc(BackpressureStalls, 4)
	s.AddTime(FenceWait, 1500)
	s.Observe(NVMWriteLatency, 42)
	s.Observe(AcceptDelay, 7)
	// Counters, then times, then latencies, each sorted by name rather
	// than by slot.
	var names []string
	for _, l := range strings.Split(strings.TrimSuffix(s.String(), "\n"), "\n") {
		names = append(names, strings.Fields(l)[0])
	}
	want := []string{"core.backpressure_stalls", "l1.hits", "nvm.reads", "sw.counter_cache_writebacks",
		"core.fence_wait", "mc.accept_delay", "nvm.write_latency"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("String() names = %v, want %v", names, want)
	}
}

// Regression: the zero-value Latency must initialize its minimum from the
// first sample. A min field starting at 0 would make any nonzero sample
// set report a bogus 0 minimum.
func TestLatencyMinLazyInit(t *testing.T) {
	var l Latency
	l.add(5)
	l.add(10)
	if got := l.Min(); got != 5 {
		t.Fatalf("Min() = %v, want 5", got)
	}
	// Same property through the Stats front door.
	s := New()
	s.Observe(NVMReadLatency, 7)
	s.Observe(NVMReadLatency, 3)
	if got := s.Latency(NVMReadLatency).Min(); got != 3 {
		t.Fatalf("observed Min() = %v, want 3", got)
	}
}

func TestQuantileDegenerate(t *testing.T) {
	var l Latency
	if l.Quantile(0.5) != 0 {
		t.Fatal("empty quantile nonzero")
	}
	l.add(42)
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := l.Quantile(q); got != 42 {
			t.Fatalf("Quantile(%v) = %v, want 42", q, got)
		}
	}
}

func TestQuantileOrderedAndBounded(t *testing.T) {
	var l Latency
	// A spread across many buckets: 1, 2, 4, ..., 2^20.
	for i := 0; i <= 20; i++ {
		l.add(sim.Time(1) << i)
	}
	last := sim.Time(0)
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95, 0.99} {
		v := l.Quantile(q)
		if v < l.Min() || v > l.Max() {
			t.Fatalf("Quantile(%v) = %v outside [min, max]", q, v)
		}
		if v < last {
			t.Fatalf("Quantile(%v) = %v < previous %v: not monotone", q, v, last)
		}
		last = v
	}
	// The median of 21 geometric samples lands in the 2^10 bucket.
	med := l.Quantile(0.5)
	if med < 1<<9 || med > 1<<11 {
		t.Fatalf("median = %v, want near 2^10", med)
	}
}

func TestQuantileUniform(t *testing.T) {
	var l Latency
	// 1000 identical samples: every quantile is that value.
	for i := 0; i < 1000; i++ {
		l.add(1500)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := l.Quantile(q); got != 1500 {
			t.Fatalf("Quantile(%v) = %v, want 1500", q, got)
		}
	}
}

func TestHistogramLog2(t *testing.T) {
	var l Latency
	if l.HistogramLog2() != nil {
		t.Fatal("empty histogram non-nil")
	}
	l.add(0) // bucket 0
	l.add(1) // bucket 1
	l.add(2) // bucket 2
	l.add(3) // bucket 2
	h := l.HistogramLog2()
	want := []uint64{1, 1, 2}
	if len(h) != len(want) {
		t.Fatalf("histogram = %v, want %v", h, want)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("histogram = %v, want %v", h, want)
		}
	}
}

func TestStringIncludesQuantiles(t *testing.T) {
	s := New()
	s.Observe(NVMReadLatency, 100)
	out := s.String()
	for _, want := range []string{"p50=", "p95=", "p99="} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

// TestSteadyStateAllocs pins the per-event bookkeeping at zero
// allocations: Inc and AddTime bump an array slot, Observe adds to a
// Latency held inline.
func TestSteadyStateAllocs(t *testing.T) {
	s := New()
	if got := testing.AllocsPerRun(100, func() {
		s.Inc(L1Hits, 1)
		s.AddTime(FenceWait, 2)
		s.Observe(AcceptDelay, 3)
	}); got > 0 {
		t.Errorf("Inc+AddTime+Observe allocates %v times, pin 0", got)
	}
}
