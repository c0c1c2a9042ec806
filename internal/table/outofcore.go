package table

import (
	"fmt"

	"fastframe/internal/bitmap"
	"fastframe/internal/blockstore"
	"fastframe/internal/scramble"
)

// Out-of-core tables: a Table can be backed either by fully resident
// column slices (the Build/ReadTable paths) or by a format-v4 block
// store (v3 files open too) paged through a shared buffer pool. Both
// backings present the same metadata surface (schema, catalog, zone
// maps, bitmap indexes — always resident) and the same block-granular
// data access surface (FloatBlocks/CatBlocks below), so the executor is
// oblivious to where a block's bytes live.

// OpenStore opens a format-v4 file (or a v3 one) as an out-of-core
// table: header metadata loads resident (so planning, pruning and active-scan
// skipping work exactly as for in-memory tables), data blocks page
// through pool on demand. The table owns the store; Close releases it.
func OpenStore(path string, pool *blockstore.Pool) (*Table, error) {
	if pool == nil {
		return nil, fmt.Errorf("table: OpenStore needs a buffer pool")
	}
	s, err := blockstore.Open(path, blockstore.OpenOptions{})
	if err != nil {
		return nil, err
	}
	t, err := fromStoreMeta(s.Meta())
	if err != nil {
		s.Close()
		return nil, err
	}
	t.store = s
	t.pool = pool
	return t, nil
}

// fromStoreMeta builds the metadata-only table skeleton shared by
// OpenStore: every map is populated from the header, data slices stay
// nil.
func fromStoreMeta(m *blockstore.Meta) (*Table, error) {
	t := &Table{
		rows:    m.Rows,
		layout:  scramble.NewLayout(m.Rows, m.BlockSize),
		floats:  map[string]*FloatColumn{},
		cats:    map[string]*CatColumn{},
		indexes: map[string]*bitmap.BlockIndex{},
		catalog: map[string]RangeBounds{},
		zones:   map[string]*ZoneMap{},
	}
	nb := t.layout.NumBlocks()
	specs := make([]ColumnSpec, len(m.Cols))
	for ci, c := range m.Cols {
		switch c.Kind {
		case blockstore.KindFloat:
			specs[ci] = ColumnSpec{Name: c.Name, Kind: Float}
			t.floats[c.Name] = &FloatColumn{}
			t.catalog[c.Name] = RangeBounds{A: c.BoundsLo, B: c.BoundsHi}
			t.zones[c.Name] = &ZoneMap{Min: c.ZoneMin, Max: c.ZoneMax}
		case blockstore.KindCat:
			specs[ci] = ColumnSpec{Name: c.Name, Kind: Categorical}
			byValue := make(map[string]uint32, len(c.Dict))
			for d, s := range c.Dict {
				byValue[s] = uint32(d)
			}
			t.cats[c.Name] = &CatColumn{Dict: c.Dict, byValue: byValue}
			t.indexes[c.Name] = bitmap.NewBlockIndexFromWords(c.IndexWords, nb)
		default:
			return nil, fmt.Errorf("table: unknown column kind %d", c.Kind)
		}
	}
	schema, err := NewSchema(specs...)
	if err != nil {
		return nil, err
	}
	t.schema = schema
	return t, nil
}

// OutOfCore reports whether the table's data blocks live in a block
// store (true) or in resident slices (false).
func (t *Table) OutOfCore() bool { return t.store != nil }

// Pool returns the buffer pool of an out-of-core table, or nil for a
// resident table.
func (t *Table) Pool() *blockstore.Pool { return t.pool }

// Store returns the block store of an out-of-core table, or nil.
func (t *Table) Store() *blockstore.Store { return t.store }

// SetLabel names the backing store in block errors and fault stats
// (typically the registered table name). No-op for resident tables.
func (t *Table) SetLabel(l string) {
	if t.store != nil {
		t.store.SetLabel(l)
	}
}

// Close releases the block store of an out-of-core table: the file is
// closed and the pool forgets the store — its cached extents and
// quarantine entries do not outlive the table in a shared pool. No
// query may be in flight; an extent one still holds pinned is reported
// as an error. Resident tables have nothing to close.
func (t *Table) Close() error {
	if t.store == nil {
		return nil
	}
	err := t.store.Close()
	if derr := t.pool.Drop(t.store); err == nil {
		err = derr
	}
	t.store = nil
	return err
}

// FloatBlocks is the block-granular access seam of one float column:
// Pin makes a block readable (out of core: pins its extent, checks and
// decodes it) and Rows returns the values of a run of blocks inside one
// extent, indexed from the run's first row, regardless of backing — a
// subslice for resident tables, the decoded rows of a pinned pool extent
// for out-of-core tables. Pinning inside a held extent, and swapping one
// warm extent for the next, do not allocate, preserving the executor's
// allocation-free steady state.
type FloatBlocks struct {
	colBlocks
	resident []float64
}

// CatBlocks is the categorical counterpart of FloatBlocks.
type CatBlocks struct {
	colBlocks
	resident []uint32
}

// colBlocks is what FloatBlocks and CatBlocks share: the column's place
// in the table, and out of core in its store.
type colBlocks struct {
	store     *blockstore.Store
	pool      *blockstore.Pool
	ci        int
	blockSize int
	rows      int
}

func (t *Table) colBlocks(name string) colBlocks {
	c := colBlocks{blockSize: t.layout.BlockSize, rows: t.rows}
	if t.store != nil {
		c.store, c.pool, c.ci = t.store, t.pool, t.schema.Lookup(name)
	}
	return c
}

// FloatBlocks returns the block accessor for a float column.
func (t *Table) FloatBlocks(name string) (FloatBlocks, error) {
	c, ok := t.floats[name]
	if !ok {
		return FloatBlocks{}, fmt.Errorf("table: no float column %q", name)
	}
	return FloatBlocks{t.colBlocks(name), c.Values}, nil
}

// CatBlocks returns the block accessor for a categorical column.
func (t *Table) CatBlocks(name string) (CatBlocks, error) {
	c, ok := t.cats[name]
	if !ok {
		return CatBlocks{}, fmt.Errorf("table: no categorical column %q", name)
	}
	return CatBlocks{t.colBlocks(name), c.Codes}, nil
}

// Pin makes block b readable. held is the frame the caller's previous
// Pin on this column returned (nil at first) and the returned frame
// replaces it: the same one while b stays inside its extent — no pool
// access once b is checked — else the extent of b, pinned after held is
// unpinned. The caller passes its last frame to Unpin when done with the
// column. Resident tables neither take nor return a frame. On a block
// read error the returned frame, nil or not, is still the caller's to
// keep, and b's rows are not to be read.
func (fb *FloatBlocks) Pin(b int, held *blockstore.Frame) (*blockstore.Frame, error) {
	return fb.pin(b, held, true)
}

// Pin makes block b readable; see FloatBlocks.Pin.
func (cb *CatBlocks) Pin(b int, held *blockstore.Frame) (*blockstore.Frame, error) {
	return cb.pin(b, held, false)
}

func (c *colBlocks) pin(b int, held *blockstore.Frame, isFloat bool) (*blockstore.Frame, error) {
	switch {
	case c.store == nil:
		return nil, nil
	case held != nil && held.Contains(b):
		return held, held.Ensure(b)
	}
	c.pool.Unpin(held)
	if isFloat {
		return c.pool.PinFloat(c.store, c.ci, b)
	}
	return c.pool.PinCat(c.store, c.ci, b)
}

// Rows returns the values of blocks [lo, hi), indexed from block lo's
// first row. Out of core, the blocks lie in the extent of held, the
// frame Pin returned, and only the rows of blocks Pin made readable hold
// the column's values.
func (fb *FloatBlocks) Rows(lo, hi int, held *blockstore.Frame) []float64 {
	if fb.store == nil {
		return fb.resident[lo*fb.blockSize : min(hi*fb.blockSize, fb.rows)]
	}
	return held.FloatRows(lo, hi)
}

// Rows returns the codes of blocks [lo, hi); see FloatBlocks.Rows.
func (cb *CatBlocks) Rows(lo, hi int, held *blockstore.Frame) []uint32 {
	if cb.store == nil {
		return cb.resident[lo*cb.blockSize : min(hi*cb.blockSize, cb.rows)]
	}
	return held.CatRows(lo, hi)
}

// Unpin releases the frame a Pin returned (no-op for nil).
func (c *colBlocks) Unpin(f *blockstore.Frame) { c.pool.Unpin(f) }

// ExtentBlocks returns the length in blocks of the table's extents
// (blockstore.ExtentBlocks): the aligned runs an out-of-core table's
// columns are paged in, and the unit a scan advances by whatever the
// backing.
func (t *Table) ExtentBlocks() int {
	return blockstore.ExtentBlocks(t.Layout().BlockSize)
}
