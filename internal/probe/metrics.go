// Windowed time-series metrics: one JSONL row per slice of simulated time.
//
// Columns are registered once at attach time and sampled at every window
// boundary crossing, driven by the sim.Engine clock hook (Probe.OnAdvance).
// Because the engine advances deterministically and columns are sampled in
// registration order, the output is byte-identical across identical runs.

package probe

import (
	"bufio"
	"io"
	"strconv"

	"encnvm/internal/sim"
)

// colKind selects how a registered sampler turns into a row value.
type colKind int

const (
	// colGauge emits the sampler's current value.
	colGauge colKind = iota
	// colCumulative emits the per-window delta of a monotone sampler.
	colCumulative
	// colUtilization emits the per-window delta of a monotone busy-time
	// sampler divided by the window length — a 0..1 utilization.
	colUtilization
	// colRatio emits dNum/(dNum+dDen) over the window (e.g. a windowed
	// hit rate), or 0 when the window saw no events.
	colRatio
)

type column struct {
	name        string
	kind        colKind
	f, f2       func() float64
	last, last2 float64
}

// MetricsWriter samples registered columns every window of simulated time
// and writes one JSON object per line. Errors are sticky and surfaced by
// Close.
type MetricsWriter struct {
	w      *bufio.Writer
	buf    []byte
	window sim.Time
	next   sim.Time // next unflushed window boundary
	lastT  sim.Time // timestamp of the last emitted row
	cols   []*column
	err    error
}

// DefaultWindow is the metrics slice used when the caller does not choose
// one: 1µs of simulated time.
const DefaultWindow = sim.Microsecond

// NewMetricsWriter returns a writer sampling every window (DefaultWindow
// when window is 0).
func NewMetricsWriter(w io.Writer, window sim.Time) *MetricsWriter {
	if window == 0 {
		window = DefaultWindow
	}
	return &MetricsWriter{w: bufio.NewWriterSize(w, 32<<10), window: window, next: window}
}

// Gauge registers an instantaneous column: the row carries f's value at the
// window boundary.
func (m *MetricsWriter) Gauge(name string, f func() float64) {
	m.cols = append(m.cols, &column{name: name, kind: colGauge, f: f})
}

// Cumulative registers a monotone column: the row carries the increase of
// f's value during the window.
func (m *MetricsWriter) Cumulative(name string, f func() float64) {
	m.cols = append(m.cols, &column{name: name, kind: colCumulative, f: f})
}

// Utilization registers a monotone busy-time column (in picoseconds): the
// row carries the fraction of the window it advanced.
func (m *MetricsWriter) Utilization(name string, f func() float64) {
	m.cols = append(m.cols, &column{name: name, kind: colUtilization, f: f})
}

// Ratio registers a windowed rate column from two monotone samplers: the
// row carries dNum/(dNum+dDen), e.g. hits/(hits+misses) within the window.
func (m *MetricsWriter) Ratio(name string, num, den func() float64) {
	m.cols = append(m.cols, &column{name: name, kind: colRatio, f: num, f2: den})
}

// Advance flushes a row for every whole window boundary at or before now.
// Component state is sampled as of the events already executed, i.e. the
// state at the end of the window.
func (m *MetricsWriter) Advance(now sim.Time) {
	for m.next <= now {
		m.row(m.next, m.next-m.lastT)
		m.lastT = m.next
		m.next += m.window
	}
}

// Close flushes whole windows up to end plus one final partial row when the
// run does not finish on a boundary, then flushes the writer.
func (m *MetricsWriter) Close(end sim.Time) error {
	m.Advance(end)
	if end > m.lastT {
		m.row(end, end-m.lastT)
		m.lastT = end
	}
	if err := m.w.Flush(); err != nil && m.err == nil {
		m.err = err
	}
	return m.err
}

// row emits one sample line for the window of length span ending at t.
func (m *MetricsWriter) row(t, span sim.Time) {
	b := m.buf[:0]
	b = append(b, `{"t_ps":`...)
	b = strconv.AppendUint(b, uint64(t), 10)
	b = append(b, `,"window_ps":`...)
	b = strconv.AppendUint(b, uint64(span), 10)
	for _, c := range m.cols {
		b = append(b, `,"`...)
		b = append(b, c.name...)
		b = append(b, `":`...)
		b = appendFloat(b, c.sample(span))
	}
	b = append(b, "}\n"...)
	m.buf = b
	if m.err != nil {
		return
	}
	_, m.err = m.w.Write(b)
}

// sample computes the column's row value for a window of length span and
// rolls the delta baselines forward.
func (c *column) sample(span sim.Time) float64 {
	switch c.kind {
	case colGauge:
		return c.f()
	case colCumulative:
		cur := c.f()
		d := cur - c.last
		c.last = cur
		return d
	case colUtilization:
		cur := c.f()
		d := cur - c.last
		c.last = cur
		if span == 0 {
			return 0
		}
		return d / float64(span)
	default: // colRatio
		n, d := c.f(), c.f2()
		dn, dd := n-c.last, d-c.last2
		c.last, c.last2 = n, d
		if dn+dd == 0 {
			return 0
		}
		return dn / (dn + dd)
	}
}

// appendFloat renders v deterministically; integral values render without a
// fraction so counters stay readable.
func appendFloat(b []byte, v float64) []byte {
	if v == float64(int64(v)) {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
