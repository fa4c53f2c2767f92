// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is measured in picoseconds so that every latency in the evaluated
// system configuration (Table 2 of the paper) is an exact integer: a 4GHz
// CPU cycle is 250ps, a 533MHz memory cycle is 1876ps, and fractional
// nanosecond parameters such as tWTR=7.5ns are representable without
// rounding.
//
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-break), which makes every simulation fully
// deterministic and therefore directly comparable across designs.
package sim

// Time is a simulated instant or duration in picoseconds.
type Time uint64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds reports t as a floating point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Handler names a callback registered once with an engine (Register).
// Events carry a Handler and a uint64 argument instead of a closure, so
// posting an event allocates nothing and the queue holds no pointers.
type Handler uint32

// NoHandler is the zero Handler. It names no callback: an event posted
// with it still fires (and counts as a step) but runs nothing, and Call
// ignores it. It plays the role a nil callback plays in a closure API.
const NoHandler Handler = 0

// handlerBits is the width of the handler index packed into an event's
// key below its insertion sequence number. 48 bits of sequence number
// outlast any simulation this repository runs by many orders of
// magnitude.
const (
	handlerBits = 16
	handlerMask = 1<<handlerBits - 1
)

// event is one scheduled handler invocation, stored by value. It holds
// no pointers, so the queue's backing array needs no write barriers when
// the heap sifts and gives the GC nothing to scan.
type event struct {
	at  Time
	key uint64 // seq<<handlerBits | handler: seq breaks ties FIFO
	arg uint64
}

// before reports whether e fires before o: a min ordering on (at, seq).
// The sequence number sits above the handler index in key, so comparing
// keys compares sequence numbers; it is unique, so this is a strict
// total order and the pop sequence — and with it every simulation output
// — is independent of the heap's internal shape.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.key < o.key
}

// eventQueue is an inline binary min-heap of events by value, ordered by
// (at, seq).
type eventQueue []event

// siftUp restores the heap property after q[i] was appended.
func (q eventQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// siftDown restores the heap property after q[0] was replaced.
func (q eventQueue) siftDown() {
	i := 0
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && q[r].before(&q[l]) {
			min = r
		}
		if !q[min].before(&q[i]) {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
}

// pop removes and returns the earliest event.
func (q *eventQueue) pop() event {
	old := *q
	e := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*q = old[:n]
	old[:n].siftDown()
	return e
}

// Engine is a discrete-event simulator. The zero value is ready to use.
//
// The earliest pending event may sit in a one-event front slot outside
// the heap: a post earlier than everything queued takes the slot (its
// previous occupant moves into the heap), and the run loops pop the slot
// before the heap. Replay posts many events that become the new earliest
// one, and those skip the heap entirely.
type Engine struct {
	now      Time
	seq      uint64
	front    event // earliest pending event when hasFront
	hasFront bool
	queue    eventQueue // every other pending event
	steps    uint64

	// handlers is indexed by Handler; slot 0 (NoHandler) stays nil. It
	// starts out in handlerBuf, which covers every handler a machine's
	// components register, so building one allocates no table.
	handlers   []func(arg uint64)
	handlerBuf [16]func(arg uint64)
	// closures holds Schedule's callbacks by slot; the built-in handler
	// closureH runs one and returns its slot to freeSlots.
	closures  []func()
	freeSlots []uint64
	closureH  Handler

	onAdvance func(Time)
}

// OnAdvance registers fn to run whenever the simulated clock is about to
// move to a strictly later instant (it is not called for same-instant
// events). Observability sinks use it to close sampling windows; fn sees
// component state as of the end of the previous instant and must not
// schedule events. A nil fn disables the hook.
func (e *Engine) OnAdvance(fn func(Time)) { e.onAdvance = fn }

// advanceTo moves the clock to t, firing the advance hook on forward jumps.
func (e *Engine) advanceTo(t Time) {
	if e.onAdvance != nil && t > e.now {
		e.onAdvance(t)
	}
	e.now = t
}

// New returns a fresh engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Register adds fn to the engine's handler table and returns the Handler
// that names it. Components register their callbacks once, at
// construction, and post events by Handler from then on.
func (e *Engine) Register(fn func(arg uint64)) Handler {
	if len(e.handlers) == 0 {
		e.handlers = e.handlerBuf[:1]
	}
	if len(e.handlers) > handlerMask {
		panic("sim: too many handlers")
	}
	e.handlers = append(e.handlers, fn)
	return Handler(len(e.handlers) - 1)
}

// Call runs handler h with arg now, inline, as part of the current
// event. A component uses it to hand a completion to its owner from
// inside its own event. Calling NoHandler does nothing.
func (e *Engine) Call(h Handler, arg uint64) {
	if h != NoHandler {
		e.handlers[h](arg)
	}
}

// Post arranges for handler h to run with arg after delay. A zero delay
// runs it on the next event-loop step, after all currently-executing
// work, never inline.
func (e *Engine) Post(delay Time, h Handler, arg uint64) {
	e.PostAt(e.now+delay, h, arg)
}

// PostAt arranges for handler h to run with arg at absolute time t.
// Scheduling in the past is a programming error and panics: it would
// silently reorder causality.
func (e *Engine) PostAt(t Time, h Handler, arg uint64) {
	if t < e.now {
		panic("sim: scheduling event in the past")
	}
	e.seq++
	ev := event{at: t, key: e.seq<<handlerBits | uint64(h), arg: arg}
	// ev has the largest sequence number yet, so it fires before an
	// event exactly when its time is strictly earlier.
	if e.hasFront {
		if t < e.front.at {
			ev, e.front = e.front, ev
		}
	} else if len(e.queue) == 0 || t < e.queue[0].at {
		e.front, e.hasFront = ev, true
		return
	}
	n := len(e.queue)
	if n == cap(e.queue) {
		e.grow()
	}
	e.queue = e.queue[:n+1]
	e.queue[n] = ev
	e.queue.siftUp(n)
}

// Schedule arranges for fn to run after delay, through the engine's one
// built-in closure handler: fn waits in a free-listed slot and the event
// carries the slot's index. It serves cold code (tests, demos, the end
// of a replay); hot paths post registered handlers instead.
func (e *Engine) Schedule(delay Time, fn func()) {
	if e.closureH == NoHandler {
		e.closureH = e.Register(e.runClosure)
	}
	var slot uint64
	if n := len(e.freeSlots); n > 0 {
		slot = e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
		e.closures[slot] = fn
	} else {
		slot = uint64(len(e.closures))
		e.closures = append(e.closures, fn)
	}
	e.Post(delay, e.closureH, slot)
}

// runClosure is the built-in handler behind Schedule.
func (e *Engine) runClosure(slot uint64) {
	fn := e.closures[slot]
	e.closures[slot] = nil
	e.freeSlots = append(e.freeSlots, slot)
	fn()
}

// grow doubles the queue's capacity out of line so that PostAt itself
// stays allocation-free once ReserveEvents has pre-sized the queue.
func (e *Engine) grow() {
	newCap := 2 * cap(e.queue)
	if newCap < 64 {
		newCap = 64
	}
	q := make(eventQueue, len(e.queue), newCap)
	copy(q, e.queue)
	e.queue = q
}

// ReserveEvents grows the queue's capacity so that at least n more
// events can be scheduled without reallocation. Replay calls it once,
// with a trace-length-derived hint, before the event loop starts.
func (e *Engine) ReserveEvents(n int) {
	if cap(e.queue)-len(e.queue) >= n {
		return
	}
	q := make(eventQueue, len(e.queue), len(e.queue)+n)
	copy(q, e.queue)
	e.queue = q
}

// next removes and returns the earliest pending event: the front slot
// if occupied, else the heap's root.
func (e *Engine) next() event {
	if e.hasFront {
		e.hasFront = false
		return e.front
	}
	return e.queue.pop()
}

// fire runs one popped event.
func (e *Engine) fire(ev event) {
	e.advanceTo(ev.at)
	e.steps++
	e.Call(Handler(ev.key&handlerMask), ev.arg)
}

// Run executes events until the queue is empty. It returns the final
// simulated time.
func (e *Engine) Run() Time {
	for e.Pending() > 0 {
		e.fire(e.next())
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline and then moves the
// clock forward to the deadline. Events beyond the deadline remain queued.
// The clock never runs backwards: a deadline before Now runs nothing. It
// returns the final simulated time, max(Now, deadline).
func (e *Engine) RunUntil(deadline Time) Time {
	for e.Pending() > 0 {
		at := e.front.at
		if !e.hasFront {
			at = e.queue[0].at
		}
		if at > deadline {
			break
		}
		e.fire(e.next())
	}
	if e.now < deadline {
		e.advanceTo(deadline)
	}
	return e.now
}

// Pending reports the number of events still queued.
func (e *Engine) Pending() int {
	if e.hasFront {
		return len(e.queue) + 1
	}
	return len(e.queue)
}

// Resource models a unit-capacity shared resource (a bus, a bank, an
// encryption pipeline slot) using timestamp reservation: a request occupies
// the resource for a duration starting no earlier than both the requested
// start time and the time the resource frees up.
type Resource struct {
	freeAt Time
	busy   Time // total occupied time, for utilization stats
}

// Reserve books the resource for dur starting at or after earliest. It
// returns the actual [start, end) of the reservation.
func (r *Resource) Reserve(earliest Time, dur Time) (start, end Time) {
	start = earliest
	if r.freeAt > start {
		start = r.freeAt
	}
	end = start + dur
	r.freeAt = end
	r.busy += dur
	return start, end
}

// BusyTime returns the total time the resource has been occupied.
func (r *Resource) BusyTime() Time { return r.busy }
