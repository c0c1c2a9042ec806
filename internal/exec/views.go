package exec

import (
	"fastframe/internal/blockstore"
	"fastframe/internal/table"
)

// The executor's column seam. A query compiles against a colSet — the
// deduplicated set of columns it touches, each resolved to a table block
// accessor and a dense slot index — and every kernel (predicate,
// grouper, aggregate) refers to columns by slot. At scan time a viewSet
// makes each block the scan fetches readable (out of core: pins its
// extent, checks and decodes it) and then binds the span's rows of every
// column into slot-indexed slices with span-local row indexing: a
// subslice for resident tables, the decoded rows of a pinned buffer-pool
// extent for out-of-core tables. The kernels are oblivious to the
// backing, observation order is untouched, and a warm bind allocates
// nothing — which is how out-of-core scans keep the engine's
// byte-identical results and allocation-free steady-state rounds.

// colSet is the distinct columns a query reads, with float and
// categorical slots numbered independently.
type colSet struct {
	t   *table.Table
	ooc bool

	fnames  []string
	cnames  []string
	fblocks []table.FloatBlocks
	cblocks []table.CatBlocks
}

func newColSet(t *table.Table) *colSet {
	return &colSet{t: t, ooc: t.OutOfCore()}
}

// floatSlot resolves a float column to its slot, adding it on first use.
func (cs *colSet) floatSlot(name string) (int, error) {
	for i, n := range cs.fnames {
		if n == name {
			return i, nil
		}
	}
	fb, err := cs.t.FloatBlocks(name)
	if err != nil {
		return 0, err
	}
	cs.fnames = append(cs.fnames, name)
	cs.fblocks = append(cs.fblocks, fb)
	return len(cs.fnames) - 1, nil
}

// catSlot resolves a categorical column to its slot, adding it on first
// use.
func (cs *colSet) catSlot(name string) (int, error) {
	for i, n := range cs.cnames {
		if n == name {
			return i, nil
		}
	}
	cb, err := cs.t.CatBlocks(name)
	if err != nil {
		return 0, err
	}
	cs.cnames = append(cs.cnames, name)
	cs.cblocks = append(cs.cblocks, cb)
	return len(cs.cnames) - 1, nil
}

// viewSet is one scanner's bound views: fvals[slot]/cvals[slot] hold
// the currently bound span of each column, rows indexed from the span's
// first row, and fframes[slot]/cframes[slot] the pool extent the span
// lies in (nil for resident tables). An extent stays pinned while
// consecutive blocks fall inside it, so a scan goes to the pool once per
// extent per column. Each engine owns its own viewSet; the underlying
// pool frames are shared and refcounted.
type viewSet struct {
	cs      *colSet
	fvals   [][]float64
	cvals   [][]uint32
	fframes []*blockstore.Frame
	cframes []*blockstore.Frame
}

func (cs *colSet) newViewSet() *viewSet {
	return &viewSet{
		cs:      cs,
		fvals:   make([][]float64, len(cs.fblocks)),
		cvals:   make([][]uint32, len(cs.cblocks)),
		fframes: make([]*blockstore.Frame, len(cs.fblocks)),
		cframes: make([]*blockstore.Frame, len(cs.cblocks)),
	}
}

// bind makes block b of every column readable: out of core it pins the
// extent of b, unless already held, and checks and decodes b; resident
// tables have nothing to do. On error b's rows are not to be read; the
// extents pinned so far stay pinned, for the next bind or for release.
func (vs *viewSet) bind(b int) error {
	if !vs.cs.ooc {
		return nil
	}
	var err error
	for i := range vs.cs.fblocks {
		if vs.fframes[i], err = vs.cs.fblocks[i].Pin(b, vs.fframes[i]); err != nil {
			return err
		}
	}
	for i := range vs.cs.cblocks {
		if vs.cframes[i], err = vs.cs.cblocks[i].Pin(b, vs.cframes[i]); err != nil {
			return err
		}
	}
	return nil
}

// bindSpan points every view at the rows of blocks [lo, hi), a span
// inside one extent. Out of core, bind must have succeeded on at least
// one of its blocks since the span began — which leaves every column's
// frame on that extent — and only the rows of such blocks may be read.
func (vs *viewSet) bindSpan(lo, hi int) {
	for i := range vs.cs.fblocks {
		vs.fvals[i] = vs.cs.fblocks[i].Rows(lo, hi, vs.fframes[i])
	}
	for i := range vs.cs.cblocks {
		vs.cvals[i] = vs.cs.cblocks[i].Rows(lo, hi, vs.cframes[i])
	}
}

// release unpins every held extent. The view slices must not be used
// afterwards until the next bindSpan. Safe to call twice.
func (vs *viewSet) release() {
	for i, f := range vs.fframes {
		if f != nil {
			vs.cs.fblocks[i].Unpin(f)
			vs.fframes[i] = nil
		}
	}
	for i, f := range vs.cframes {
		if f != nil {
			vs.cs.cblocks[i].Unpin(f)
			vs.cframes[i] = nil
		}
	}
}
