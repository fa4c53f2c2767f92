// Package stats collects simulation statistics: event counters, byte
// counters, and latency distributions. A single Stats value is shared by
// the components of one simulated system; the experiment harness reads it
// after the run to produce the paper's tables and figures.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"encnvm/internal/sim"
)

// Counter names one event counter. Every counter the simulator bumps is
// one of the constants below, so a bump indexes an array instead of
// hashing a name; names appear only when the measurements are listed.
type Counter uint8

// Event counters, in one place so producers and the harness cannot
// diverge on a name.
const (
	// Memory traffic.
	DataBytesWritten Counter = iota
	CounterBytesWritten
	BytesRead
	DataWrites
	CounterWrites
	Reads

	// Caches.
	L1Hits
	L1Misses
	L2Hits
	L2Misses
	CounterCacheHits
	CounterCacheMiss
	CounterCacheWB

	// Controller behaviour.
	CAWrites
	NonCAWrites
	ReadyBitWaits
	WriteQueueStalls
	CoalescedWrites
	CoalescedCounters
	ReadForwards
	ReadQueueFull
	StopLossCounterWrites

	// Core and software events.
	BackpressureStalls
	Transactions
	PersistBarriers
	Clwbs
	CCWBs

	numCounters
)

var counterNames = [numCounters]string{
	DataBytesWritten:      "nvm.data_bytes_written",
	CounterBytesWritten:   "nvm.counter_bytes_written",
	BytesRead:             "nvm.bytes_read",
	DataWrites:            "nvm.data_writes",
	CounterWrites:         "nvm.counter_writes",
	Reads:                 "nvm.reads",
	L1Hits:                "l1.hits",
	L1Misses:              "l1.misses",
	L2Hits:                "l2.hits",
	L2Misses:              "l2.misses",
	CounterCacheHits:      "ctrcache.hits",
	CounterCacheMiss:      "ctrcache.misses",
	CounterCacheWB:        "ctrcache.writebacks",
	CAWrites:              "mc.counter_atomic_writes",
	NonCAWrites:           "mc.regular_writes",
	ReadyBitWaits:         "mc.ready_bit_waits",
	WriteQueueStalls:      "mc.write_queue_full_stalls",
	CoalescedWrites:       "mc.coalesced_writes",
	CoalescedCounters:     "mc.coalesced_counter_writes",
	ReadForwards:          "mc.read_forwards",
	ReadQueueFull:         "mc.read_queue_full",
	StopLossCounterWrites: "mc.stoploss_counter_writes",
	BackpressureStalls:    "core.backpressure_stalls",
	Transactions:          "sw.transactions",
	PersistBarriers:       "sw.persist_barriers",
	Clwbs:                 "sw.clwbs",
	CCWBs:                 "sw.counter_cache_writebacks",
}

// String returns the counter's name.
func (c Counter) String() string { return counterNames[c] }

// Bucket names one accumulated-time bucket.
type Bucket uint8

// Time buckets.
const (
	FenceWait Bucket = iota // total time cores spent blocked in sfence

	numBuckets
)

var bucketNames = [numBuckets]string{
	FenceWait: "core.fence_wait",
}

// String returns the bucket's name.
func (b Bucket) String() string { return bucketNames[b] }

// Dist names one latency distribution.
type Dist uint8

// Latency distributions.
const (
	NVMReadLatency  Dist = iota // device read, request to data on the bus
	NVMWriteLatency             // device write, request to array write done
	AcceptDelay                 // data write, arrival to queue acceptance
	CtrAcceptDelay              // counter write, arrival to queue acceptance
	FenceWaitEach               // one sfence's blocked time

	numDists
)

var distNames = [numDists]string{
	NVMReadLatency:  "nvm.read_latency",
	NVMWriteLatency: "nvm.write_latency",
	AcceptDelay:     "mc.accept_delay",
	CtrAcceptDelay:  "mc.ctr_accept_delay",
	FenceWaitEach:   "core.fence_wait_each",
}

// String returns the distribution's name.
func (d Dist) String() string { return distNames[d] }

// The seen masks hold one bit per counter and bucket.
var (
	_ [64 - numCounters]struct{}
	_ [64 - numBuckets]struct{}
)

// Stats aggregates all measurements of one simulation run. A counter or
// time bucket is listed once it has been bumped, even by zero; a latency
// distribution once it holds a sample.
type Stats struct {
	counters    [numCounters]uint64
	times       [numBuckets]sim.Time
	lat         [numDists]Latency
	counterSeen uint64 // bit c: counter c was bumped
	timeSeen    uint64 // bit b: bucket b was bumped
}

// New returns an empty Stats.
func New() *Stats { return &Stats{} }

// Inc adds delta to the counter.
func (s *Stats) Inc(c Counter, delta uint64) {
	s.counters[c] += delta
	s.counterSeen |= 1 << c
}

// Count returns the counter (zero if never incremented).
func (s *Stats) Count(c Counter) uint64 { return s.counters[c] }

// AddTime accumulates simulated time into a bucket (e.g. stall time).
func (s *Stats) AddTime(b Bucket, d sim.Time) {
	s.times[b] += d
	s.timeSeen |= 1 << b
}

// Time returns the bucket's accumulated time.
func (s *Stats) Time(b Bucket) sim.Time { return s.times[b] }

// Observe records one latency sample into the distribution.
func (s *Stats) Observe(d Dist, v sim.Time) { s.lat[d].add(v) }

// Latency returns the distribution, or nil if no samples were recorded.
func (s *Stats) Latency(d Dist) *Latency {
	if s.lat[d].n == 0 {
		return nil
	}
	return &s.lat[d]
}

// HitRate returns hits/(hits+misses) for a pair of counters, or 0 when no
// accesses were recorded.
func (s *Stats) HitRate(hits, misses Counter) float64 {
	h, m := s.counters[hits], s.counters[misses]
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// TotalBytesWritten returns all NVM write traffic (data + counters).
func (s *Stats) TotalBytesWritten() uint64 {
	return s.counters[DataBytesWritten] + s.counters[CounterBytesWritten]
}

// Counters returns a copy of all bumped event counters by name.
func (s *Stats) Counters() map[string]uint64 {
	out := make(map[string]uint64)
	for c, v := range s.counters {
		if s.counterSeen&(1<<c) != 0 {
			out[counterNames[c]] = v
		}
	}
	return out
}

// Times returns a copy of all bumped time buckets by name.
func (s *Stats) Times() map[string]sim.Time {
	out := make(map[string]sim.Time)
	for b, v := range s.times {
		if s.timeSeen&(1<<b) != 0 {
			out[bucketNames[b]] = v
		}
	}
	return out
}

// Latencies returns the sampled latency distributions by name. The
// *Latency values are shared with the Stats and must be treated as
// read-only.
func (s *Stats) Latencies() map[string]*Latency {
	out := make(map[string]*Latency)
	for d := range s.lat {
		if s.lat[d].n != 0 {
			out[distNames[d]] = &s.lat[d]
		}
	}
	return out
}

// String renders all measurements sorted by name, for logs and the CLI.
func (s *Stats) String() string {
	var b strings.Builder
	counters := s.Counters()
	for _, k := range sortedKeys(counters) {
		fmt.Fprintf(&b, "%-40s %12d\n", k, counters[k])
	}
	times := s.Times()
	for _, k := range sortedKeys(times) {
		fmt.Fprintf(&b, "%-40s %12.1f ns\n", k, times[k].Nanoseconds())
	}
	lats := s.Latencies()
	for _, k := range sortedKeys(lats) {
		l := lats[k]
		fmt.Fprintf(&b, "%-40s n=%d avg=%.1fns min=%.1fns p50=%.1fns p95=%.1fns p99=%.1fns max=%.1fns\n",
			k, l.Count(), l.Mean().Nanoseconds(), l.Min().Nanoseconds(),
			l.Quantile(0.50).Nanoseconds(), l.Quantile(0.95).Nanoseconds(),
			l.Quantile(0.99).Nanoseconds(), l.Max().Nanoseconds())
	}
	return b.String()
}

// sortedKeys returns m's names in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// histBuckets is the fixed size of the log₂ latency histogram: bucket i
// counts samples whose value has bit length i — bucket 0 holds exact
// zeros, bucket i (i ≥ 1) holds values in [2^(i-1), 2^i). 64 value buckets
// cover the full sim.Time range.
const histBuckets = 65

// Latency is a streaming latency distribution: count/sum/min/max moments
// plus a fixed log₂-bucket histogram for quantile estimation. The zero
// value is ready to use.
type Latency struct {
	n    uint64
	sum  sim.Time
	min  sim.Time
	max  sim.Time
	hist [histBuckets]uint64
}

func (l *Latency) add(d sim.Time) {
	// min initializes lazily on the first sample: a zero-value Latency
	// would otherwise carry min == 0 and record a bogus zero minimum.
	if l.n == 0 || d < l.min {
		l.min = d
	}
	if d > l.max {
		l.max = d
	}
	l.n++
	l.sum += d
	l.hist[bits.Len64(uint64(d))]++
}

// Count returns the number of samples.
func (l *Latency) Count() uint64 { return l.n }

// Mean returns the average sample, or 0 with no samples.
func (l *Latency) Mean() sim.Time {
	if l.n == 0 {
		return 0
	}
	return l.sum / sim.Time(l.n)
}

// Min returns the smallest sample, or 0 with no samples.
func (l *Latency) Min() sim.Time {
	if l.n == 0 {
		return 0
	}
	return l.min
}

// Max returns the largest sample.
func (l *Latency) Max() sim.Time { return l.max }

// Sum returns the total of all samples.
func (l *Latency) Sum() sim.Time { return l.sum }

// Quantile estimates the q-quantile (0 < q < 1) from the log₂ histogram:
// it locates the bucket holding the ceil(q·n)-th smallest sample and
// interpolates linearly inside the bucket's value range, clamped to the
// exact observed min/max. With 0 or 1 samples it degenerates exactly.
func (l *Latency) Quantile(q float64) sim.Time {
	if l.n == 0 {
		return 0
	}
	if q <= 0 {
		return l.min
	}
	if q >= 1 {
		return l.max
	}
	rank := uint64(math.Ceil(q * float64(l.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range l.hist {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := bucketBounds(i)
			pos := float64(rank-cum-1) / float64(c)
			v := lo + sim.Time(pos*float64(hi-lo))
			if v < l.min {
				v = l.min
			}
			if v > l.max {
				v = l.max
			}
			return v
		}
		cum += c
	}
	return l.max
}

// bucketBounds returns the [lo, hi] value range of histogram bucket i.
func bucketBounds(i int) (lo, hi sim.Time) {
	if i == 0 {
		return 0, 0
	}
	lo = sim.Time(1) << (i - 1)
	if i == 64 {
		return lo, ^sim.Time(0)
	}
	return lo, sim.Time(1)<<i - 1
}

// HistogramLog2 returns a copy of the log₂ bucket counts with trailing
// zero buckets trimmed (nil when empty).
func (l *Latency) HistogramLog2() []uint64 {
	n := len(l.hist)
	for n > 0 && l.hist[n-1] == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	return append([]uint64(nil), l.hist[:n]...)
}
