package verify

import (
	"encoding/binary"
	"sort"

	"encnvm/internal/mem"
	"encnvm/internal/trace"
)

// BuildImage functionally executes tr up to and including the schedule's
// crash op and returns the post-crash plaintext image: exactly the
// writebacks the schedule lands reach NVM, everything else in flight is
// lost with the volatile caches, and any line whose persisted data and
// counter versions disagree decrypts to deterministic garbage (Eq. 4).
//
// The model mirrors the verifier's abstraction, not the timing engine:
// per-line store counts stand in for encryption counters, so "data
// version == counter version" is exactly "the line decrypts". Replaying a
// counterexample therefore needs no cycle-accurate run — the schedule
// already names the crash class, and every image in the class differs
// only in lines the invariants do not constrain.
func BuildImage(tr trace.Source, sched *Schedule) *mem.Space {
	type cacheLine struct {
		content mem.Line
		ver     int
		ca      bool
	}
	type nvmLine struct {
		content mem.Line
		ver     int
	}
	type pending struct {
		line     mem.Addr
		data     bool // data writeback (content+ver; carries the counter if ca)
		content  mem.Line
		ver      int
		ca       bool
		issuedAt int // op index of the clwb/counter writeback
	}

	cache := make(map[mem.Addr]*cacheLine)
	var cacheOrder []mem.Addr
	nvmData := make(map[mem.Addr]nvmLine)
	nvmCtr := make(map[mem.Addr]int)
	var inflight []pending

	// Suppressed writebacks never retire, even across later fences.
	type wbKey struct {
		line mem.Addr
		ctr  bool
		op   int
	}
	dropped := make(map[wbKey]bool)
	for _, d := range sched.Drop {
		dropped[wbKey{line: mem.Addr(d.Addr).LineAddr(), ctr: d.Ctr, op: d.Op}] = true
	}

	line := func(a mem.Addr) *cacheLine {
		a = a.LineAddr()
		c, ok := cache[a]
		if !ok {
			c = &cacheLine{}
			cache[a] = c
			cacheOrder = append(cacheOrder, a)
		}
		return c
	}
	commit := func(p pending) {
		if p.data {
			nvmData[p.line] = nvmLine{content: p.content, ver: p.ver}
			if p.ca {
				nvmCtr[p.line] = p.ver
			}
		} else {
			nvmCtr[p.line] = p.ver
		}
	}
	dropFor := func(a mem.Addr) {
		out := inflight[:0]
		for _, p := range inflight {
			if p.line != a {
				out = append(out, p)
			}
		}
		inflight = out
	}

	end := sched.CrashOp
	if end >= tr.Len() {
		end = tr.Len() - 1
	}
	var op trace.Op
	for i := 0; i <= end; i++ {
		tr.Op(i, &op)
		switch op.Kind {
		case trace.Write:
			a := op.Addr.LineAddr()
			c := line(a)
			c.content = op.Line
			c.ver++
			c.ca = op.CounterAtomic
			// A newer store supersedes the line's in-flight writebacks,
			// matching the verifier: stale writebacks no longer promote.
			dropFor(a)
		case trace.Clwb:
			a := op.Addr.LineAddr()
			if c, ok := cache[a]; ok && c.ver > 0 && nvmData[a].ver != c.ver {
				inflight = append(inflight, pending{
					line: a, data: true, content: c.content, ver: c.ver, ca: c.ca,
					issuedAt: i,
				})
			}
		case trace.CCWB:
			g := CounterGroup(op.Addr)
			for _, a := range cacheOrder {
				if CounterGroup(a) != g {
					continue
				}
				c := cache[a]
				if c.ver > 0 && !c.ca && nvmCtr[a] != c.ver {
					inflight = append(inflight, pending{line: a, ver: c.ver, issuedAt: i})
				}
			}
		case trace.Sfence:
			for _, p := range inflight {
				if dropped[wbKey{line: p.line, ctr: !p.data, op: p.issuedAt}] {
					continue
				}
				commit(p)
			}
			inflight = inflight[:0]
		}
	}

	// The crash: land exactly the scheduled writebacks, lose the rest.
	for _, le := range sched.Land {
		a := mem.Addr(le.Addr).LineAddr()
		switch {
		case le.Evict:
			if c, ok := cache[a]; ok && c.ver > 0 {
				nvmData[a] = nvmLine{content: c.content, ver: c.ver}
				if c.ca {
					nvmCtr[a] = c.ver
				}
			}
		case le.Ctr:
			landed := false
			for j := len(inflight) - 1; j >= 0; j-- {
				if p := inflight[j]; p.line == a && !p.data {
					commit(p)
					landed = true
					break
				}
			}
			if !landed {
				if c, ok := cache[a]; ok && c.ver > 0 {
					nvmCtr[a] = c.ver
				}
			}
		default:
			landed := false
			for j := len(inflight) - 1; j >= 0; j-- {
				if p := inflight[j]; p.line == a && p.data {
					commit(p)
					landed = true
					break
				}
			}
			if !landed {
				if c, ok := cache[a]; ok && c.ver > 0 {
					nvmData[a] = nvmLine{content: c.content, ver: c.ver}
					if c.ca {
						nvmCtr[a] = c.ver
					}
				}
			}
		}
	}

	// Decrypt: matching versions yield the plaintext the data was written
	// with; mismatched versions yield garbage.
	addrs := make([]mem.Addr, 0, len(nvmData))
	for a := range nvmData {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	space := mem.NewSpace()
	for _, a := range addrs {
		d := nvmData[a]
		if nvmCtr[a] == d.ver {
			space.WriteLine(a, d.content)
		} else {
			space.WriteLine(a, garbageLine(a, d.ver, nvmCtr[a]))
		}
	}
	return space
}

// FinalImage applies every store functionally and returns the final
// program state — the reference a durability counterexample is compared
// against.
func FinalImage(tr trace.Source) *mem.Space {
	space := mem.NewSpace()
	var op trace.Op
	for i, n := 0, tr.Len(); i < n; i++ {
		tr.Op(i, &op)
		if op.Kind == trace.Write {
			space.WriteLine(op.Addr, op.Line)
		}
	}
	return space
}

// garbageLine deterministically garbles a line from its address and the
// mismatched version pair — the stand-in for decrypting with the wrong
// counter, stable across runs so replays are reproducible.
func garbageLine(a mem.Addr, dataVer, ctrVer int) mem.Line {
	const (
		offset64 = 0xCBF29CE484222325
		prime64  = 0x100000001B3
	)
	h := uint64(offset64)
	for _, v := range []uint64{uint64(a), uint64(dataVer), uint64(ctrVer)} {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xFF
			h *= prime64
		}
	}
	var out mem.Line
	x := h | 1
	for i := 0; i < mem.LineBytes; i += 8 {
		// xorshift64 stream seeded by the hash
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(out[i:], x)
	}
	return out
}
