package mem

import (
	"math/rand"
	"sort"
	"testing"
)

// tableRegions are the address ranges a machine's tables see: two core
// arenas (64 MiB apart with the per-core skew) and the counter region of
// the default 8 GiB module.
func tableRegions() []Addr {
	return []Addr{0, 64<<20 + 37*LineBytes, NewLayout(8 << 30).CounterBase}
}

// randomLine picks a line in one of the regions: mostly near its base,
// sometimes megabytes up, so pages land inside, beside and far from the
// directories already there.
func randomLine(rng *rand.Rand) Addr {
	regions := tableRegions()
	base := regions[rng.Intn(len(regions))]
	span := 1 << 12
	if rng.Intn(8) == 0 {
		span = 1 << 16
	}
	return base + Addr(rng.Intn(span))*LineBytes + Addr(rng.Intn(LineBytes))
}

// checkTable requires t to hold exactly the model's lines and values,
// and to enumerate them in ascending address order.
func checkTable(t *testing.T, tab *Table[uint64], model map[Addr]uint64) {
	t.Helper()
	if tab.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d lines", tab.Len(), len(model))
	}
	want := make([]Addr, 0, len(model))
	for a := range model {
		want = append(want, a)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	var got []Addr
	tab.Each(func(a Addr, v *uint64) {
		if *v != model[a] {
			t.Fatalf("Each: line %#x = %d, model %d", a, *v, model[a])
		}
		got = append(got, a)
	})
	if len(got) != len(want) {
		t.Fatalf("Each visited %d lines, model has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Each order: line %d is %#x, want %#x", i, got[i], want[i])
		}
	}
}

// TestTableMatchesMap drives a Table and a map through the same random
// stores and lookups over both arenas and the counter region.
func TestTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab Table[uint64]
		model := make(map[Addr]uint64)
		for i := 0; i < 3000; i++ {
			a := randomLine(rng)
			la := a.LineAddr()
			switch rng.Intn(3) {
			case 0: // increment, as the counter state does
				p := tab.Ptr(a)
				*p++
				model[la]++
				if *p != model[la] {
					t.Fatalf("seed %d: Ptr(%#x) = %d after increment, model %d", seed, a, *p, model[la])
				}
			case 1:
				v := rng.Uint64()
				*tab.Ptr(a) = v
				model[la] = v
			case 2:
				got, ok := tab.Get(a)
				want, wok := model[la]
				if ok != wok || got != want {
					t.Fatalf("seed %d: Get(%#x) = %d,%v, model %d,%v", seed, a, got, ok, want, wok)
				}
			}
		}
		checkTable(t, &tab, model)
	}
}

// TestTableDescendingAndZero covers growth below a directory's start
// and zero values: a present line holding zero is still present.
func TestTableDescendingAndZero(t *testing.T) {
	var tab Table[uint64]
	model := make(map[Addr]uint64)
	for i := 4096; i >= 0; i-- {
		a := Addr(i * LineBytes)
		*tab.Ptr(a) = uint64(i % 3)
		model[a] = uint64(i % 3)
	}
	checkTable(t, &tab, model)
	if v, ok := tab.Get(0); !ok || v != 0 {
		t.Fatalf("Get(0) = %d,%v, want present zero", v, ok)
	}
	if _, ok := tab.Get(4097 * LineBytes); ok {
		t.Fatal("Get reports an untouched line present")
	}
}

// TestTableCloneIndependent requires a clone to keep its own values and
// lines after either side changes.
func TestTableCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tab Table[uint64]
	model := make(map[Addr]uint64)
	for i := 0; i < 500; i++ {
		a := randomLine(rng).LineAddr()
		*tab.Ptr(a) = uint64(i + 1)
		model[a] = uint64(i + 1)
	}
	cl := tab.Clone()
	cmodel := make(map[Addr]uint64, len(model))
	for a, v := range model {
		cmodel[a] = v
	}
	for i := 0; i < 500; i++ {
		a := randomLine(rng).LineAddr()
		*tab.Ptr(a) = 1000
		model[a] = 1000
		b := randomLine(rng).LineAddr()
		*cl.Ptr(b) = 2000
		cmodel[b] = 2000
	}
	checkTable(t, &tab, model)
	checkTable(t, &cl, cmodel)
}
