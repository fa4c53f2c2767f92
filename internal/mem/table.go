package mem

// Page geometry of a Table. A page holds eight consecutive lines inline
// with a one-byte presence bitmap. Small pages keep a fresh machine's
// tables small: a crash injection touches a few hundred lines scattered
// over the log, the heap and the counter region, and pays only for the
// pages those lines fall in.
const (
	pageShift = 3
	pageLines = 1 << pageShift
	pageMask  = pageLines - 1

	// maxDirGap is the widest run of untouched pages a directory grows
	// across to take in a new page. A page farther from every directory
	// opens a directory of its own: the per-core arenas, the counter
	// region (~119 M lines up an 8 GiB module) and even the undo-log
	// slots 64 pages apart each get one, so a fresh machine's sparse
	// tables hold a few short directories rather than slots for the
	// untouched space between them.
	maxDirGap = 8
)

// page holds the values of pageLines consecutive lines. Bit i of
// present is set once line i has been stored to.
type page[V any] struct {
	present uint8
	vals    [pageLines]V
}

// dir is a run of page slots indexed by page number; nil slots are
// pages no line of has been touched in.
type dir[V any] struct {
	first uint64 // page number of pages[0]
	pages []*page[V]
}

// Table is sparse per-line state: one V per line address, stored inline
// in small pages found through directories that cover only the page
// ranges actually touched. Lookups cost an index computation, not a
// hash, and lines enumerate in address order. The zero value is an
// empty table ready to use. A Table is not safe for concurrent use.
type Table[V any] struct {
	dirs []dir[V] // sorted by first, disjoint
	last int      // index in dirs of the latest hit
	n    int      // lines present
}

// Len returns the number of lines present.
func (t *Table[V]) Len() int { return t.n }

// Ptr returns the value slot of the line holding a, making the line
// present (with a zero value) if it was not.
func (t *Table[V]) Ptr(a Addr) *V {
	i := a.LineIndex()
	pg := t.page(i >> pageShift)
	if pg == nil {
		pg = t.addPage(i >> pageShift)
	}
	bit := uint8(1) << (i & pageMask)
	if pg.present&bit == 0 {
		pg.present |= bit
		t.n++
	}
	return &pg.vals[i&pageMask]
}

// Get returns the value of the line holding a and whether the line is
// present. It never adds a line.
func (t *Table[V]) Get(a Addr) (V, bool) {
	i := a.LineIndex()
	if pg := t.page(i >> pageShift); pg != nil && pg.present&(1<<(i&pageMask)) != 0 {
		return pg.vals[i&pageMask], true
	}
	var zero V
	return zero, false
}

// Each calls f with every present line's address and value slot, in
// ascending address order. f must not add lines.
func (t *Table[V]) Each(f func(a Addr, v *V)) {
	for d := range t.dirs {
		dd := &t.dirs[d]
		for off, pg := range dd.pages {
			if pg == nil {
				continue
			}
			base := (dd.first + uint64(off)) << pageShift
			for j := 0; j < pageLines; j++ {
				if pg.present&(1<<j) != 0 {
					f(Addr((base+uint64(j))<<LineShift), &pg.vals[j])
				}
			}
		}
	}
}

// Clone returns a deep copy of t.
func (t *Table[V]) Clone() Table[V] {
	out := Table[V]{dirs: make([]dir[V], len(t.dirs)), n: t.n}
	for d, dd := range t.dirs {
		pages := make([]*page[V], len(dd.pages))
		for off, pg := range dd.pages {
			if pg != nil {
				cp := *pg
				pages[off] = &cp
			}
		}
		out.dirs[d] = dir[V]{first: dd.first, pages: pages}
	}
	return out
}

// page returns the page numbered pn, or nil if no line in it was
// touched. The directory of the previous hit is tried first.
func (t *Table[V]) page(pn uint64) *page[V] {
	if t.last < len(t.dirs) {
		d := &t.dirs[t.last]
		if off := pn - d.first; off < uint64(len(d.pages)) {
			return d.pages[off]
		}
	}
	d := t.search(pn) - 1
	if d < 0 {
		return nil
	}
	dd := &t.dirs[d]
	if off := pn - dd.first; off < uint64(len(dd.pages)) {
		t.last = d
		return dd.pages[off]
	}
	return nil
}

// search returns the number of directories starting at or below pn.
func (t *Table[V]) search(pn uint64) int {
	lo, hi := 0, len(t.dirs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.dirs[m].first <= pn {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// addPage allocates page pn, which no directory holds yet. It fills
// its slot in the directory below, or joins that directory when within
// maxDirGap pages of its end, else the directory above when within
// maxDirGap of its start, else it opens a directory of its own.
func (t *Table[V]) addPage(pn uint64) *page[V] {
	pg := new(page[V])
	d := t.search(pn)
	if d > 0 {
		below := &t.dirs[d-1]
		off := pn - below.first
		if off < uint64(len(below.pages)) {
			below.pages[off] = pg
			t.last = d - 1
			return pg
		}
		if off-uint64(len(below.pages)) <= maxDirGap {
			for uint64(len(below.pages)) < off {
				below.pages = append(below.pages, nil)
			}
			below.pages = append(below.pages, pg)
			t.last = d - 1
			return pg
		}
	}
	if d < len(t.dirs) {
		above := &t.dirs[d]
		if above.first-pn <= maxDirGap {
			// Grow downward by at least the directory's own length (but
			// not into the directory below), so a descending sweep
			// copies the slots O(log n) times rather than once a page.
			first := pn
			if grow := uint64(len(above.pages)); above.first-first < grow {
				first = above.first - grow
				if first > pn { // wrapped below page 0
					first = 0
				}
				if d > 0 {
					below := &t.dirs[d-1]
					if end := below.first + uint64(len(below.pages)); first < end {
						first = end
					}
				}
			}
			pages := make([]*page[V], above.first-first+uint64(len(above.pages)))
			copy(pages[above.first-first:], above.pages)
			pages[pn-first] = pg
			above.first, above.pages = first, pages
			t.last = d
			return pg
		}
	}
	t.dirs = append(t.dirs, dir[V]{})
	copy(t.dirs[d+1:], t.dirs[d:])
	t.dirs[d] = dir[V]{first: pn, pages: []*page[V]{pg}}
	t.last = d
	return pg
}
