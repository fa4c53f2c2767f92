// Package badworkload is a seeded fixture for the persistcheck
// analyzers: each function below violates exactly one check, and the
// analyzer tests (and the persistcheck acceptance run) assert every
// violation is flagged. The local stand-in types keep the fixture
// self-contained — the analyzers are syntactic, so the shapes are what
// matters.
package badworkload

type space struct{}

func (space) WriteUint64(addr, v uint64) {}
func (space) ReadUint64(addr uint64) (v uint64) {
	return 0
}

type runtime struct{ s space }

func (r runtime) Space() space            { return r.s }
func (r runtime) CCWB(addr, n uint64)     {}
func (r runtime) Fence()                  {}
func (r runtime) PersistBarrier(a, n int) {}

// corruptDirectly writes through the raw image, bypassing the Tx and
// trace machinery. rawspacewrite must flag it.
func corruptDirectly(rt runtime) {
	rt.Space().WriteUint64(64, 1) // want rawspacewrite
}

// writebackNeverOrdered issues a counter writeback and returns without
// any ordering point. persistorder must flag it.
func writebackNeverOrdered(rt runtime) {
	rt.CCWB(64, 16) // want persistorder
}

// fenceBeforeNotAfter fences first, then writes back: the writeback is
// still never ordered. persistorder must flag it.
func fenceBeforeNotAfter(rt runtime) {
	rt.Fence()
	rt.CCWB(64, 16) // want persistorder
}

// readThenProperBarrier is clean: raw reads are fine, and the writeback
// is followed by a fence.
func readThenProperBarrier(rt runtime) uint64 {
	v := rt.Space().ReadUint64(64)
	rt.CCWB(64, 16)
	rt.Fence()
	return v
}

// barrierCoversWriteback is clean: PersistBarrier is an ordering point.
func barrierCoversWriteback(rt runtime) {
	rt.CCWB(64, 16)
	rt.PersistBarrier(64, 16)
}
