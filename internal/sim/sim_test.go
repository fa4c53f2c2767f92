package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Nanosecond != 1000*Picosecond {
		t.Fatalf("Nanosecond = %d", Nanosecond)
	}
	if Second != 1e12 {
		t.Fatalf("Second = %d", Second)
	}
	if got := (7*Nanosecond + 500*Picosecond).Nanoseconds(); got != 7.5 {
		t.Fatalf("Nanoseconds() = %v, want 7.5", got)
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("end = %d, want 30", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var times []Time
	e.Schedule(10, func() {
		times = append(times, e.Now())
		e.Schedule(5, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times = %v", times)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.PostAt(50, NoHandler, 0)
	})
	e.Run()
}

func TestZeroDelayRunsAfterCurrent(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(10, func() {
		e.Schedule(0, func() { order = append(order, 2) })
		order = append(order, 1)
	})
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	now := e.RunUntil(25)
	if now != 25 {
		t.Fatalf("RunUntil returned %d, want 25", now)
	}
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want events at 10,20", fired)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("after full run fired = %v", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := New()
	if now := e.RunUntil(500); now != 500 {
		t.Fatalf("idle RunUntil = %d, want 500", now)
	}
	if e.Now() != 500 {
		t.Fatalf("Now = %d, want 500", e.Now())
	}
}

// TestRunUntilPastDeadline pins the forward-only clock: a deadline
// before Now runs nothing and leaves the clock where it was, so a later
// post cannot land before instants already simulated.
func TestRunUntilPastDeadline(t *testing.T) {
	e := New()
	fired := false
	e.Schedule(100, func() { fired = true })
	if now := e.RunUntil(50); now != 50 {
		t.Fatalf("RunUntil(50) = %d", now)
	}
	if now := e.RunUntil(20); now != 50 || e.Now() != 50 {
		t.Fatalf("RunUntil(20) after RunUntil(50) = %d, Now %d; want 50", now, e.Now())
	}
	if fired || e.Pending() != 1 {
		t.Fatalf("past deadline fired=%v pending=%d", fired, e.Pending())
	}
	var at Time
	e.Schedule(0, func() { at = e.Now() })
	e.Run()
	if at != 50 || !fired || e.Now() != 100 {
		t.Fatalf("post after past deadline ran at %d (want 50), fired=%v, Now %d", at, fired, e.Now())
	}
}

func TestSteps(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Steps() != 7 {
		t.Fatalf("steps = %d, want 7", e.Steps())
	}
}

// Property: regardless of the (possibly duplicated, unsorted) delays chosen,
// the engine fires events in nondecreasing time order and ends at the max.
func TestPropertyMonotonicTime(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		var fired []Time
		var max Time
		for _, d := range delays {
			d := Time(d)
			if d > max {
				max = d
			}
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceReserve(t *testing.T) {
	var r Resource
	s, e := r.Reserve(100, 50)
	if s != 100 || e != 150 {
		t.Fatalf("first reserve = [%d,%d)", s, e)
	}
	// Earlier request queues behind the existing reservation.
	s, e = r.Reserve(120, 30)
	if s != 150 || e != 180 {
		t.Fatalf("second reserve = [%d,%d), want [150,180)", s, e)
	}
	// A request after the resource frees starts immediately.
	s, e = r.Reserve(1000, 10)
	if s != 1000 || e != 1010 {
		t.Fatalf("third reserve = [%d,%d)", s, e)
	}
	if r.BusyTime() != 90 {
		t.Fatalf("busy = %d, want 90", r.BusyTime())
	}
	// The resource is next free at 1010: an early request starts there.
	if s, _ = r.Reserve(0, 1); s != 1010 {
		t.Fatalf("free at %d, want 1010", s)
	}
}

// Property: reservations never overlap and each starts no earlier than
// requested.
func TestPropertyResourceNoOverlap(t *testing.T) {
	f := func(reqs []struct {
		Earliest uint16
		Dur      uint8
	}) bool {
		var r Resource
		var prevEnd Time
		for _, q := range reqs {
			dur := Time(q.Dur) + 1
			s, e := r.Reserve(Time(q.Earliest), dur)
			if s < Time(q.Earliest) || e != s+dur || s < prevEnd {
				return false
			}
			prevEnd = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOnAdvanceFiresOnForwardJumpsOnly(t *testing.T) {
	e := New()
	var jumps []Time
	e.OnAdvance(func(next Time) { jumps = append(jumps, next) })
	e.Schedule(10, func() {})
	e.Schedule(10, func() {}) // same instant: no extra hook call
	e.Schedule(25, func() {})
	e.Run()
	if len(jumps) != 2 || jumps[0] != 10 || jumps[1] != 25 {
		t.Fatalf("jumps = %v, want [10 25]", jumps)
	}
}

func TestOnAdvanceSeesPreJumpState(t *testing.T) {
	e := New()
	var nowAtHook Time
	e.OnAdvance(func(next Time) { nowAtHook = e.Now() })
	e.Schedule(40, func() {})
	e.Run()
	// The hook runs before the clock moves: Now() is still the old time.
	if nowAtHook != 0 {
		t.Fatalf("Now() during hook = %v, want 0", nowAtHook)
	}
}

func TestOnAdvanceFiresForRunUntilDeadline(t *testing.T) {
	e := New()
	var jumps []Time
	e.OnAdvance(func(next Time) { jumps = append(jumps, next) })
	e.Schedule(5, func() {})
	e.RunUntil(100) // idle advance to the deadline must fire the hook too
	if len(jumps) != 2 || jumps[0] != 5 || jumps[1] != 100 {
		t.Fatalf("jumps = %v, want [5 100]", jumps)
	}
}

// TestSteadyStateAllocs pins the event loop at zero allocations per
// event, on both paths in: PostAt stores events by value in the queue
// ReserveEvents sized, and Run pops them in place; Schedule reuses a
// free closure slot. Only the cold growth paths allocate.
func TestSteadyStateAllocs(t *testing.T) {
	e := New()
	e.ReserveEvents(1)
	h := e.Register(func(uint64) {})
	if got := testing.AllocsPerRun(100, func() {
		e.Post(Nanosecond, h, 7)
		e.Run()
	}); got > 0 {
		t.Errorf("Post+Run allocates %v times per event, pin 0", got)
	}
	fn := func() {}
	if got := testing.AllocsPerRun(100, func() {
		e.Schedule(Nanosecond, fn)
		e.Run()
	}); got > 0 {
		t.Errorf("Schedule+Run allocates %v times per event, pin 0", got)
	}
}

func TestHandlerReceivesArg(t *testing.T) {
	e := New()
	var got []uint64
	h := e.Register(func(arg uint64) { got = append(got, arg) })
	e.Post(20, h, 2)
	e.Post(10, h, 1)
	e.PostAt(20, h, 3)
	e.Post(10, NoHandler, 9) // fires, runs nothing
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("handler args = %v, want [1 2 3]", got)
	}
	if e.Steps() != 4 {
		t.Fatalf("steps = %d, want 4 (a NoHandler event still fires)", e.Steps())
	}
}

func TestCallRunsInline(t *testing.T) {
	e := New()
	var got []uint64
	h := e.Register(func(arg uint64) { got = append(got, arg) })
	e.Call(h, 5)
	e.Call(NoHandler, 6)
	if len(got) != 1 || got[0] != 5 || e.Steps() != 0 || e.Pending() != 0 {
		t.Fatalf("Call: got %v, steps %d, pending %d", got, e.Steps(), e.Pending())
	}
}

func TestZeroValueEngine(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(5, func() { order = append(order, 2) })
	h := e.Register(func(arg uint64) { order = append(order, int(arg)) })
	e.Post(1, h, 1)
	e.Post(9, NoHandler, 0)
	if e.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", e.Pending())
	}
	if end := e.Run(); end != 9 || len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("zero-value engine ran %v, ended at %d", order, end)
	}
}
