// Linkedlist reproduces the paper's §2.2.3 motivating example: inserting a
// node into an encrypted persistent linked list, with a power failure
// after the head-pointer update's data reaches NVM but before its
// encryption counter does.
//
// Built with legacy persistency primitives (no counter_cache_writeback, no
// CounterAtomic annotation — they did not exist before this paper), the
// head pointer decrypts to garbage after the crash. Built with the paper's
// primitives on SCA hardware, every crash point recovers.
package main

import (
	"fmt"
	"log"

	"encnvm/internal/config"
	"encnvm/internal/crash"
	"encnvm/internal/machine"
	"encnvm/internal/mem"
	"encnvm/internal/persist"
	"encnvm/internal/replay"
	"encnvm/internal/sim"
	"encnvm/internal/trace"
)

// buildListTrace writes a three-node persistent linked list exactly as the
// paper's Figure 4 walks through it: create the node, set its next
// pointer, then publish it by updating the head pointer. The head-pointer
// store is the write that must be counter-atomic.
func buildListTrace(legacy bool) (*persist.Runtime, mem.Addr) {
	rt := persist.NewRuntime(persist.ArenaFor(0, crash.DefaultArena))
	rt.SetLegacy(legacy)

	head := rt.AllocLines(1) // head pointer in its own line
	var prev mem.Addr
	for item := uint64(1); item <= 3; item++ {
		node := rt.AllocLines(1)
		// Step 1: fill the new node with its item value.
		rt.StoreUint64(node, item*0x1111)
		// Step 2: link it in front of the current list.
		rt.StoreUint64(node+8, uint64(prev))
		rt.Clwb(node, 16)
		rt.CCWB(node, 16)
		rt.Fence()
		// Step 3: the head-pointer update makes the node reachable —
		// this is the write the paper annotates CounterAtomic.
		rt.StoreUint64CounterAtomic(head, uint64(node))
		rt.Clwb(head, 8)
		rt.Fence()
		prev = node
	}
	return rt, head
}

// walk traverses the recovered list, returning the items found and an
// error description if a pointer or value is implausible.
func walk(space *mem.Space, head mem.Addr, arena persist.Arena) ([]uint64, string) {
	var items []uint64
	cur := mem.Addr(space.ReadUint64(head))
	for steps := 0; cur != 0; steps++ {
		if steps > 10 {
			return items, "cycle or runaway pointer"
		}
		if cur < arena.HeapBase() || cur >= arena.End() || cur.LineOffset() != 0 {
			return items, fmt.Sprintf("wild node pointer %#x (garbled decryption)", cur)
		}
		items = append(items, space.ReadUint64(cur))
		cur = mem.Addr(space.ReadUint64(cur + 8))
	}
	return items, ""
}

// crashAndRecover replays the trace under the design, crashes at the given
// instant, and decrypts NVM with the counters found in NVM.
func crashAndRecover(d config.Design, rt *persist.Runtime, at sim.Time) (*mem.Space, sim.Time) {
	sys := newSystem(d, rt)
	t := sys.RunUntil(at)
	sys.MC.DrainADR(t)
	snap := sys.Dev.Image().SnapshotAt(t)
	return crash.DecryptImage(sys.MC.Layout(), sys.MC.Encryption(), snap), t
}

func main() {
	arena := persist.ArenaFor(0, crash.DefaultArena)

	fmt.Println("== legacy persistency primitives on an encrypted NVMM (Ideal design) ==")
	legacyRT, head := buildListTrace(true)
	end := newSystem(config.Ideal, legacyRT).Run()
	failures := 0
	for i := sim.Time(1); i <= 10; i++ {
		space, t := crashAndRecover(config.Ideal, legacyRT, end*i/10)
		items, problem := walk(space, head, arena)
		if problem != "" {
			failures++
			fmt.Printf("  crash at %6.0fns: list UNRECOVERABLE: %s\n", t.Nanoseconds(), problem)
		} else {
			fmt.Printf("  crash at %6.0fns: recovered %d items %v\n", t.Nanoseconds(), len(items), items)
		}
	}
	fmt.Printf("  -> %d/10 crash points lost the list (Fig. 3/4 failure)\n\n", failures)

	fmt.Println("== the paper's primitives (CounterAtomic head) on SCA hardware ==")
	scaRT, head2 := buildListTrace(false)
	end = newSystem(config.SCA, scaRT).Run()
	failures = 0
	for i := sim.Time(1); i <= 10; i++ {
		space, t := crashAndRecover(config.SCA, scaRT, end*i/10)
		items, problem := walk(space, head2, arena)
		if problem != "" {
			failures++
			fmt.Printf("  crash at %6.0fns: list UNRECOVERABLE: %s\n", t.Nanoseconds(), problem)
		} else {
			fmt.Printf("  crash at %6.0fns: recovered %d items %v\n", t.Nanoseconds(), len(items), items)
		}
	}
	fmt.Printf("  -> %d/10 crash points lost the list\n", failures)
	if failures != 0 {
		log.Fatal("SCA should never lose the list")
	}
}

// newSystem assembles the design's built-in machine and attaches the
// runtime's trace to its single core.
func newSystem(d config.Design, rt *persist.Runtime) *replay.System {
	spec, err := machine.SpecForDesign(d)
	if err != nil {
		log.Fatal(err)
	}
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
