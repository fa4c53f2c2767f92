// Kvstore builds a small persistent key-value store directly on the
// persist runtime's undo-log transactions — the way an application would
// use this library's software stack — then runs it through the full
// encrypted-NVMM pipeline: timing replay under SCA, a mid-run power
// failure, decryption with the counters found in NVM, undo-log recovery,
// and a consistency audit of the recovered store.
package main

import (
	"fmt"
	"log"

	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/mem"
	"encnvm/internal/persist"
	"encnvm/internal/replay"
	"encnvm/internal/sim"
	"encnvm/internal/trace"
)

// kv is a fixed-capacity open-addressing hash map in persistent memory.
// Layout: meta line {magic, capacity, count}; then capacity slots of one
// line each: {state, key, val} with val = key ^ tagConst.
type kv struct {
	rt    *persist.Runtime
	meta  mem.Addr
	slots mem.Addr
	cap   uint64
}

const (
	kvMagic   = 0x4B565354524F5245 // "KVSTRORE"-ish tag
	tagConst  = 0x5BD1E9955BD1E995
	slotEmpty = 0
	slotFull  = 1
)

func newKV(rt *persist.Runtime, capacity uint64) *kv {
	s := &kv{rt: rt, cap: capacity}
	s.meta = rt.AllocLines(1)
	s.slots = rt.AllocLines(int(capacity))
	rt.StoreUint64(s.meta+8, capacity)
	// Publish with a CounterAtomic store after persisting the layout.
	rt.PersistBarrier(s.meta, int(rt.HeapUsed()))
	rt.StoreUint64CounterAtomic(s.meta, kvMagic)
	rt.Clwb(s.meta, 8)
	rt.Fence()
	return s
}

func (s *kv) slot(i uint64) mem.Addr { return s.slots + mem.Addr(i*mem.LineBytes) }

// put inserts a key transactionally (linear probing; no resize).
func (s *kv) put(key uint64) {
	s.rt.Tx(func(tx *persist.Tx) {
		i := key * 0x9E3779B97F4A7C15 % s.cap
		for probes := uint64(0); probes < s.cap; probes++ {
			a := s.slot(i)
			if tx.LoadUint64(a) == slotEmpty {
				tx.StoreUint64(a+8, key)
				tx.StoreUint64(a+16, key^tagConst)
				tx.StoreUint64(a, slotFull)
				tx.StoreUint64(s.meta+16, tx.LoadUint64(s.meta+16)+1)
				return
			}
			i = (i + 1) % s.cap
		}
		panic("kvstore full")
	})
	s.rt.Compute(300)
}

// audit validates a (recovered) image of the store: every full slot's
// value must carry the key tag, and the count must match.
func audit(space *mem.Space, meta mem.Addr, heap mem.Addr) error {
	if space.ReadUint64(meta) != kvMagic {
		return nil // never published (or wiped pre-publish): vacuous
	}
	capacity := space.ReadUint64(meta + 8)
	count := space.ReadUint64(meta + 16)
	if capacity == 0 || capacity > 1<<20 {
		return fmt.Errorf("implausible capacity %d", capacity)
	}
	var full uint64
	for i := uint64(0); i < capacity; i++ {
		a := heap + mem.Addr((i+1)*mem.LineBytes)
		switch space.ReadUint64(a) {
		case slotEmpty:
		case slotFull:
			full++
			key := space.ReadUint64(a + 8)
			if space.ReadUint64(a+16) != key^tagConst {
				return fmt.Errorf("slot %d: corrupt value for key %d", i, key)
			}
		default:
			return fmt.Errorf("slot %d: garbled state word", i)
		}
	}
	if full != count {
		return fmt.Errorf("count %d but %d full slots", count, full)
	}
	return nil
}

func main() {
	arena := persist.ArenaFor(0, crash.DefaultArena)
	rt := persist.NewRuntime(arena)
	store := newKV(rt, 64)
	for k := uint64(1); k <= 40; k++ {
		store.put(k)
	}

	spec, err := machine.ByName("sca")
	if err != nil {
		log.Fatal(err)
	}
	newSystem := func() *replay.System {
		m, err := machine.Build(spec)
		if err != nil {
			log.Fatal(err)
		}
		sys, err := replay.NewMachine(m, []*trace.Trace{rt.Trace()})
		if err != nil {
			log.Fatal(err)
		}
		return sys
	}
	// Full run: the committed store must survive the whole pipeline.
	end := newSystem().Run()
	fmt.Printf("40 transactional puts replayed under SCA in %.1fus\n", end.Nanoseconds()/1000)

	// Crash mid-run, recover, audit.
	for _, frac := range []sim.Time{3, 5, 7, 9} {
		sys2 := newSystem()
		t := sys2.RunUntil(end * frac / 10)
		sys2.MC.DrainADR(t)
		space := crash.DecryptImage(sys2.MC.Layout(), sys2.MC.Encryption(),
			sys2.Dev.Image().SnapshotAt(t))
		rep := persist.Recover(space, arena)
		if err := audit(space, arena.HeapBase(), arena.HeapBase()); err != nil {
			log.Fatalf("crash at %.0fns: recovered store inconsistent: %v", t.Nanoseconds(), err)
		}
		count := space.ReadUint64(arena.HeapBase() + 16)
		fmt.Printf("crash at %7.0fns: recovered consistent store with %2d keys (rollbacks: %d)\n",
			t.Nanoseconds(), count, rep.ValidEntries)
	}
	fmt.Println("kvstore: every crash point recovered a consistent store")
}
