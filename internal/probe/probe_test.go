package probe

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"encnvm/internal/sim"
)

func TestAppendUS(t *testing.T) {
	cases := []struct {
		ps   sim.Time
		want string
	}{
		{0, "0"},
		{1, "0.000001"},
		{1500, "0.0015"},
		{1_000_000, "1"},
		{1_500_000, "1.5"},
		{2_000_001, "2.000001"},
		{123_456_789, "123.456789"},
	}
	for _, c := range cases {
		if got := string(appendUS(nil, c.ps)); got != c.want {
			t.Errorf("appendUS(%d) = %q, want %q", c.ps, got, c.want)
		}
	}
}

// traceDoc is the trace-event JSON container for decoding in tests.
type traceDoc struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Ts   float64                `json:"ts"`
	Dur  float64                `json:"dur"`
	Args map[string]interface{} `json:"args"`
}

func TestTraceWriterProducesValidJSON(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.ProcessName(PidNVM, "nvm")
	tw.ThreadName(PidNVM, TidBus, "bus")
	tw.Complete(PidNVM, TidBus, "burst", 1000, 2500)
	tw.CompleteAddr(PidNVM, TidReadBank, "rd", 0, 63_000, 0x1040)
	tw.Begin(PidSoftware, 0, "tx", 10_000)
	tw.End(PidSoftware, 0, 20_000)
	tw.Counter(PidMemctrl, "write-queues", 5_000,
		CounterKV{"data", 3}, CounterKV{"counter", 1})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("got %d events, want 7", len(doc.TraceEvents))
	}
	burst := doc.TraceEvents[2]
	if burst.Ph != "X" || burst.Ts != 0.001 || burst.Dur != 0.0015 {
		t.Fatalf("burst event = %+v", burst)
	}
	rd := doc.TraceEvents[3]
	if rd.Args["addr"] != "0x1040" {
		t.Fatalf("addr arg = %v", rd.Args["addr"])
	}
	if doc.TraceEvents[4].Ph != "B" || doc.TraceEvents[5].Ph != "E" {
		t.Fatal("span events out of order")
	}
	ctr := doc.TraceEvents[6]
	if ctr.Ph != "C" || ctr.Args["data"] != float64(3) {
		t.Fatalf("counter event = %+v", ctr)
	}
}

func TestTraceWriterEmptyDocument(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("got %d events, want 0", len(doc.TraceEvents))
	}
}

func TestMetricsWriterWindows(t *testing.T) {
	var buf bytes.Buffer
	mw := NewMetricsWriter(&buf, 1000)
	gauge := 0.0
	cum := 0.0
	mw.Gauge("g", func() float64 { return gauge })
	mw.Cumulative("c", func() float64 { return cum })

	gauge, cum = 1, 10
	mw.Advance(1500) // crosses the 1000 boundary
	gauge, cum = 2, 25
	mw.Advance(3200) // crosses 2000 and 3000
	if err := mw.Close(3700); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // windows at 1000, 2000, 3000 + partial to 3700
		t.Fatalf("got %d rows, want 4:\n%s", len(lines), buf.String())
	}
	type row struct {
		T      uint64  `json:"t_ps"`
		Window uint64  `json:"window_ps"`
		G      float64 `json:"g"`
		C      float64 `json:"c"`
	}
	var rows []row
	for _, ln := range lines {
		var r row
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatalf("row %q: %v", ln, err)
		}
		rows = append(rows, r)
	}
	if rows[0].T != 1000 || rows[0].G != 1 || rows[0].C != 10 {
		t.Fatalf("row 0 = %+v", rows[0])
	}
	// Windows 2000 and 3000 sample after the second update: the
	// cumulative delta lands in the first crossed window.
	if rows[1].T != 2000 || rows[1].C != 15 || rows[2].C != 0 {
		t.Fatalf("rows 1/2 = %+v %+v", rows[1], rows[2])
	}
	if rows[3].T != 3700 || rows[3].Window != 700 {
		t.Fatalf("final partial row = %+v", rows[3])
	}
}

func TestMetricsWriterRatioAndUtilization(t *testing.T) {
	var buf bytes.Buffer
	mw := NewMetricsWriter(&buf, 1000)
	hits, misses, busy := 0.0, 0.0, 0.0
	mw.Ratio("hr", func() float64 { return hits }, func() float64 { return misses })
	mw.Utilization("u", func() float64 { return busy })

	hits, misses, busy = 3, 1, 500
	mw.Advance(1000)
	// No activity in the second window.
	mw.Advance(2000)
	if err := mw.Close(2000); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d rows:\n%s", len(lines), buf.String())
	}
	if want := `"hr":0.75`; !strings.Contains(lines[0], want) {
		t.Errorf("row 0 missing %s: %s", want, lines[0])
	}
	if want := `"u":0.5`; !strings.Contains(lines[0], want) {
		t.Errorf("row 0 missing %s: %s", want, lines[0])
	}
	if want := `"hr":0,"u":0`; !strings.Contains(lines[1], want) {
		t.Errorf("idle row should carry zeros: %s", lines[1])
	}
}

// Every hook must be callable on a nil probe and on a probe with no sinks.
func TestNilProbeHooksAreNoOps(t *testing.T) {
	for _, p := range []*Probe{nil, New()} {
		p.SpanBegin(0, "tx", 0)
		p.SpanEnd(0, 1)
		p.CAWrite(0x40, 0, 10)
		p.Encrypt(0x40, 0, 10)
		p.QueueDepth(5, 1, 2, 3)
		p.BankBusy(true, 3, 0x80, 0, 100)
		p.BusBusy(0x80, 0, 50)
		p.OnAdvance(1000)
		p.EmitTopology(2, 4)
		if p.Trace() != nil || p.Metrics() != nil {
			t.Fatal("sink accessors non-nil without attachment")
		}
		if err := p.Close(100); err != nil {
			t.Fatal(err)
		}
	}
}

func TestProbeQueueDepthDeduplicates(t *testing.T) {
	var buf bytes.Buffer
	p := New().AttachTrace(&buf)
	p.QueueDepth(100, 1, 0, 0)
	p.QueueDepth(200, 1, 0, 0) // unchanged: suppressed
	p.QueueDepth(300, 2, 0, 0)
	if err := p.Close(300); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d counter events, want 2 (dedup failed)", len(doc.TraceEvents))
	}
}
