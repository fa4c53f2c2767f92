package engines

import (
	"testing"

	"encnvm/internal/config"
)

// The counter-placement columns pin what the controller used to branch
// on per design, for all nine rows; every row round-trips through both
// lookups.
func TestPolicyTableMatchesDesignPredicates(t *testing.T) {
	want := map[string]struct {
		design                 config.Design
		enc, cache, coloc, sep bool
		recovery               Recovery
	}{
		"noenc":       {config.NoEncryption, false, false, false, false, CounterRegion},
		"ideal":       {config.Ideal, true, true, false, true, CounterRegion},
		"colocated":   {config.CoLocated, true, false, true, false, CounterRegion},
		"colocatedcc": {config.CoLocatedCC, true, true, true, false, CounterRegion},
		"fca":         {config.FCA, true, true, false, true, CounterRegion},
		"sca":         {config.SCA, true, true, false, true, CounterRegion},
		"osiris":      {config.Osiris, true, true, false, true, ChecksumWindow},
		"bmt":         {config.BMT, true, true, false, true, TreeWalk},
		"secpm":       {config.SecPM, true, true, false, true, CounterRegion},
	}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want the %d rows of the table", names, len(want))
	}
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Fatalf("unexpected engine %q", name)
		}
		e, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if e.Name != name || e.Design != w.design {
			t.Errorf("ByName(%q) = %s/%v, want %s/%v", name, e.Name, e.Design, name, w.design)
		}
		if e.Encrypted != w.enc || e.UsesCounterCache != w.cache ||
			e.CoLocatesCounters != w.coloc || e.SeparateCounterWrites != w.sep {
			t.Errorf("%s: enc=%v cache=%v coloc=%v sep=%v, want %v %v %v %v", name,
				e.Encrypted, e.UsesCounterCache, e.CoLocatesCounters, e.SeparateCounterWrites,
				w.enc, w.cache, w.coloc, w.sep)
		}
		// config sizes the 72-bit bus from its own copy of this column.
		if e.CoLocatesCounters != e.Design.CoLocatesCounters() {
			t.Errorf("%s: CoLocatesCounters = %v, config.Design says %v",
				name, e.CoLocatesCounters, e.Design.CoLocatesCounters())
		}
		if e.Recovery != w.recovery {
			t.Errorf("%s: Recovery = %v, want %v", name, e.Recovery, w.recovery)
		}
		byDesign, err := ForDesign(e.Design)
		if err != nil || byDesign != e {
			t.Errorf("ForDesign(%v) does not round-trip to %s (%v)", e.Design, name, err)
		}
	}
	if _, err := ForDesign(config.Design(99)); err == nil {
		t.Error("ForDesign accepted an out-of-range design")
	}
	if _, err := ByName("madeup"); err == nil {
		t.Error("ByName accepted an unknown engine")
	}
}

// Lookups hand out copies: editing a returned row must not reach the
// table.
func TestLookupsReturnCopies(t *testing.T) {
	e, err := ByName("sca")
	if err != nil {
		t.Fatal(err)
	}
	e.Encrypted, e.CrashConsistent = false, false
	d, err := ForDesign(config.SCA)
	if err != nil {
		t.Fatal(err)
	}
	d.CounterWritebackBlocks = false
	again, err := ByName("sca")
	if err != nil {
		t.Fatal(err)
	}
	if !again.Encrypted || !again.CrashConsistent || !again.CounterWritebackBlocks {
		t.Fatal("editing a looked-up row changed the builtin table")
	}
}

// Write atomicity is the subtlest branch the controller used to carry:
// FCA forces every write counter-atomic, co-located, Osiris and SecPM
// designs drop the annotation, Ideal, SCA and BMT honor it.
func TestWriteIsCounterAtomic(t *testing.T) {
	cases := []struct {
		engine           string
		plain, annotated bool
	}{
		{"noenc", false, false},
		{"ideal", false, true},
		{"colocated", false, false},
		{"colocatedcc", false, false},
		{"fca", true, true},
		{"sca", false, true},
		{"osiris", false, false},
		{"bmt", false, true},
		{"secpm", false, false},
	}
	for _, c := range cases {
		e, err := ByName(c.engine)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.WriteIsCounterAtomic(false); got != c.plain {
			t.Errorf("%s: WriteIsCounterAtomic(false) = %v", c.engine, got)
		}
		if got := e.WriteIsCounterAtomic(true); got != c.annotated {
			t.Errorf("%s: WriteIsCounterAtomic(true) = %v", c.engine, got)
		}
	}
}

// Every design but Ideal claims crash consistency; Ideal deliberately
// disclaims it (ccwb never blocks the barrier). enginecheck verifies the
// claim against the rest of the table, so this pin keeps the claims from
// drifting silently.
func TestCrashConsistencyClaims(t *testing.T) {
	for _, name := range Names() {
		e, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want := name != "ideal"
		if e.CrashConsistent != want {
			t.Errorf("%s: CrashConsistent = %v, want %v", name, e.CrashConsistent, want)
		}
	}
}

// Only Osiris runs the stop-loss rule; everyone else reports the -1
// sentinel that disables the lag tracker entirely. Only BMT carries a
// tree path with its counter writes: the ancestor path plus the MAC
// line, 9 writes under the Table-2 geometry.
func TestStopLossLimit(t *testing.T) {
	cfg := config.Default(config.Osiris)
	cfg.StopLoss = 7
	for _, name := range Names() {
		e, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want := -1
		if name == "osiris" {
			want = 7
		}
		if got := e.StopLossLimit(cfg); got != want {
			t.Errorf("%s: StopLossLimit = %d, want %d", name, got, want)
		}
		wantTree := 0
		if name == "bmt" {
			wantTree = 9
		}
		if got := e.TreePathWrites(cfg); got != wantTree {
			t.Errorf("%s: TreePathWrites = %d, want %d", name, got, wantTree)
		}
	}
}
