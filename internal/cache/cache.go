// Package cache models a set-associative write-back cache with true-LRU
// replacement. The same structure serves the private L1s, the shared L2,
// and the counter cache (where each resident line holds eight 8B encryption
// counters).
//
// The model is structural: it tracks presence and dirtiness per line and
// reports evictions; the data itself flows through the replay engine, which
// keeps the plaintext image. clwb is modeled as the paper describes Intel's
// primitive — write the line back without invalidating it (§6.1).
package cache

import (
	"fmt"

	"encnvm/internal/config"
	"encnvm/internal/mem"
)

type way struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // global LRU timestamp
}

// Cache is one set-associative cache. Not safe for concurrent use; the
// replay engine serializes all accesses through the event loop.
type Cache struct {
	cfg   config.CacheConfig
	sets  [][]way
	clock uint64
}

// New builds a cache from its configuration.
func New(cfg config.CacheConfig) *Cache {
	n := cfg.Sets()
	if n <= 0 || cfg.SizeBytes%(cfg.Ways*cfg.LineBytes) != 0 {
		panic(fmt.Sprintf("cache: bad geometry %+v", cfg))
	}
	sets := make([][]way, n)
	for i := range sets {
		sets[i] = make([]way, cfg.Ways)
	}
	return &Cache{cfg: cfg, sets: sets}
}

// Config returns the cache's configuration.
func (c *Cache) Config() config.CacheConfig { return c.cfg }

func (c *Cache) index(line mem.Addr) (set int, tag uint64) {
	idx := uint64(line) / uint64(c.cfg.LineBytes)
	return int(idx % uint64(len(c.sets))), idx / uint64(len(c.sets))
}

// AccessResult reports the outcome of one cache access.
type AccessResult struct {
	Hit bool
	// Victim is set when a miss evicted a valid line.
	Victim      mem.Addr
	VictimValid bool
	VictimDirty bool
}

// Access looks up the line containing addr, allocating it on a miss
// (write-allocate for both reads and writes) and updating LRU state. write
// marks the line dirty.
func (c *Cache) Access(addr mem.Addr, write bool) AccessResult {
	line := addr.LineAddr()
	si, tag := c.index(line)
	set := c.sets[si]
	c.clock++

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = c.clock
			if write {
				set[i].dirty = true
			}
			return AccessResult{Hit: true}
		}
	}

	// Miss: pick an invalid way, else the LRU way.
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	res := AccessResult{}
	if set[victim].valid {
		res.Victim = c.lineAddr(si, set[victim].tag)
		res.VictimValid = true
		res.VictimDirty = set[victim].dirty
	}
	set[victim] = way{tag: tag, valid: true, dirty: write, used: c.clock}
	return res
}

func (c *Cache) lineAddr(set int, tag uint64) mem.Addr {
	idx := tag*uint64(len(c.sets)) + uint64(set)
	return mem.Addr(idx * uint64(c.cfg.LineBytes))
}

// Contains reports whether the line containing addr is resident, without
// touching LRU state.
func (c *Cache) Contains(addr mem.Addr) bool {
	si, tag := c.index(addr.LineAddr())
	for _, w := range c.sets[si] {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// IsDirty reports whether the line containing addr is resident and dirty.
func (c *Cache) IsDirty(addr mem.Addr) bool {
	si, tag := c.index(addr.LineAddr())
	for _, w := range c.sets[si] {
		if w.valid && w.tag == tag {
			return w.dirty
		}
	}
	return false
}

// Clean clears the dirty bit of the line containing addr without evicting
// it — the clwb / counter_cache_writeback() semantics. It reports whether
// the line was resident and dirty (i.e. whether a writeback is actually
// needed).
func (c *Cache) Clean(addr mem.Addr) bool {
	si, tag := c.index(addr.LineAddr())
	set := c.sets[si]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			wasDirty := set[i].dirty
			set[i].dirty = false
			return wasDirty
		}
	}
	return false
}

// Invalidate drops the line containing addr, reporting whether it was
// resident and whether it was dirty (the caller owes a writeback if so).
func (c *Cache) Invalidate(addr mem.Addr) (present, dirty bool) {
	si, tag := c.index(addr.LineAddr())
	set := c.sets[si]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			dirty = set[i].dirty
			set[i] = way{}
			return true, dirty
		}
	}
	return false, false
}

// DirtyCount returns the number of resident dirty lines without
// allocating — the cheap occupancy gauge the observability layer samples
// every metrics window.
func (c *Cache) DirtyCount() int {
	n := 0
	for _, set := range c.sets {
		for _, w := range set {
			if w.valid && w.dirty {
				n++
			}
		}
	}
	return n
}

// DirtyLines returns the addresses of all resident dirty lines, in address
// order within each set (deterministic).
func (c *Cache) DirtyLines() []mem.Addr {
	var out []mem.Addr
	for si, set := range c.sets {
		for _, w := range set {
			if w.valid && w.dirty {
				out = append(out, c.lineAddr(si, w.tag))
			}
		}
	}
	return out
}

// CleanAll clears every dirty bit and returns the lines that were dirty —
// a full-cache writeback.
func (c *Cache) CleanAll() []mem.Addr {
	var out []mem.Addr
	for si := range c.sets {
		for i := range c.sets[si] {
			w := &c.sets[si][i]
			if w.valid && w.dirty {
				out = append(out, c.lineAddr(si, w.tag))
				w.dirty = false
			}
		}
	}
	return out
}

// Reset drops all contents.
func (c *Cache) Reset() {
	for si := range c.sets {
		for i := range c.sets[si] {
			c.sets[si][i] = way{}
		}
	}
}
