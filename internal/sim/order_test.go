package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// refEvent is one pending event in the reference model.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// orderDriver runs a program of engine operations, decoded from bytes,
// against an Engine and against a reference model: a plain list of
// pending events whose earliest by (at, seq) must be the next to fire.
// Events are handler posts and closure schedules with small delays (so
// same-instant ties and front-slot displacement are common), and a
// firing event posts children of its own.
type orderDriver struct {
	e      *Engine
	h      Handler
	prog   []byte
	pc     int
	ref    []refEvent
	seq    uint64
	nextID int
	fired  int
	lastAt Time
	err    error
}

// byte consumes the next program byte; an exhausted program reads 0.
func (d *orderDriver) byte() byte {
	if d.pc >= len(d.prog) {
		return 0
	}
	d.pc++
	return d.prog[d.pc-1]
}

func (d *orderDriver) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// earliest returns the index of the reference's next event, or -1.
func (d *orderDriver) earliest() int {
	k := -1
	for i, r := range d.ref {
		if k < 0 || r.at < d.ref[k].at || (r.at == d.ref[k].at && r.seq < d.ref[k].seq) {
			k = i
		}
	}
	return k
}

// post schedules one event, as a handler post or a closure schedule.
func (d *orderDriver) post() {
	b := d.byte()
	delay := Time(b>>1) % 8
	id := d.nextID
	d.nextID++
	d.seq++
	d.ref = append(d.ref, refEvent{at: d.e.Now() + delay, seq: d.seq, id: id})
	if b&1 == 0 {
		d.e.Post(delay, d.h, uint64(id))
	} else {
		d.e.Schedule(delay, func() { d.fire(id) })
	}
}

// fire checks that the engine fired the reference's earliest event at
// its time, then posts children.
func (d *orderDriver) fire(id int) {
	k := d.earliest()
	if k < 0 || d.ref[k].id != id || d.ref[k].at != d.e.Now() {
		d.fail("fired event %d at %d; reference expects %+v", id, d.e.Now(), d.ref[max(k, 0):max(k+1, 0)])
		return
	}
	d.ref = append(d.ref[:k], d.ref[k+1:]...)
	d.fired++
	d.lastAt = d.e.Now()
	if got := d.e.Steps(); got != uint64(d.fired) {
		d.fail("Steps = %d inside event %d, want %d", got, id, d.fired)
	}
	for n := d.byte() % 3; n > 0; n-- {
		d.post()
	}
}

// run checks Run or, with until set, RunUntil(deadline).
func (d *orderDriver) run(until bool, deadline Time) {
	before, prevNow := d.fired, d.e.Now()
	var now Time
	if until {
		now = d.e.RunUntil(deadline)
	} else {
		now = d.e.Run()
	}
	// Run ends at its last event; RunUntil ends at its deadline, or
	// stays at Now when the deadline is already past.
	want := prevNow
	switch {
	case until:
		want = max(prevNow, deadline)
		if k := d.earliest(); k >= 0 && d.ref[k].at <= deadline {
			d.fail("RunUntil(%d) left event %+v", deadline, d.ref[k])
		}
		if deadline < prevNow && d.fired != before {
			d.fail("RunUntil(%d) at Now %d fired %d events", deadline, prevNow, d.fired-before)
		}
	case d.fired > before:
		want = d.lastAt
	}
	if !until && len(d.ref) > 0 {
		d.fail("Run returned with %d reference events pending", len(d.ref))
	}
	if now != want || d.e.Now() != want {
		d.fail("run (until=%v, deadline %d) returned %d, Now %d, want %d", until, deadline, now, d.e.Now(), want)
	}
}

// checkEngineOrder runs prog and reports the first disagreement between
// the engine and the reference.
func checkEngineOrder(prog []byte) error {
	d := &orderDriver{e: New(), prog: prog}
	d.h = d.e.Register(func(arg uint64) { d.fire(int(arg)) })
	for d.pc < len(d.prog) && d.err == nil {
		switch op := d.byte() % 8; op {
		case 0, 1, 2, 3:
			d.post()
		case 4: // RunUntil a deadline at or before Now
			d.run(true, d.e.Now()-min(d.e.Now(), Time(d.byte()%12)))
		case 5: // RunUntil between (or at) event times
			d.run(true, d.e.Now()+Time(d.byte()%12))
		case 6: // RunUntil exactly at the earliest event's time
			if k := d.earliest(); k >= 0 {
				d.run(true, d.ref[k].at)
			}
		case 7:
			d.run(false, 0)
		}
		if d.e.Pending() != len(d.ref) {
			d.fail("Pending = %d, reference holds %d", d.e.Pending(), len(d.ref))
		}
	}
	d.run(false, 0)
	if d.err == nil && (d.e.Pending() != 0 || d.e.Steps() != uint64(d.nextID)) {
		d.fail("after draining: Pending %d, Steps %d, posted %d", d.e.Pending(), d.e.Steps(), d.nextID)
	}
	return d.err
}

// TestEngineOrderDifferential drives random mixes of handler posts and
// closure schedules, ties, posts from inside events, and RunUntil at,
// between and before event times, and holds the engine's pop order, Steps,
// Pending and Now to a reference sort by (at, seq).
func TestEngineOrderDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		prog := make([]byte, 1+rng.Intn(300))
		rng.Read(prog)
		if err := checkEngineOrder(prog); err != nil {
			t.Fatalf("program %d (%x): %v", i, prog, err)
		}
	}
}

func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 2, 4, 1, 3, 7})
	f.Add([]byte{0, 0, 1, 16, 2, 8, 6, 5, 3, 7})
	f.Add([]byte{3, 255, 2, 254, 4, 1, 7, 7, 5, 11})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if err := checkEngineOrder(prog); err != nil {
			t.Fatal(err)
		}
	})
}
