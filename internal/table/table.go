package table

import (
	"fmt"
	"math"
	"math/rand/v2"

	"fastframe/internal/bitmap"
	"fastframe/internal/blockstore"
	"fastframe/internal/scramble"
)

// Table is an immutable FastFrame scramble: columnar data in randomly
// permuted row order, per-categorical-column block bitmap indexes, and a
// catalog of range bounds for continuous columns. Build one with a
// Builder, load one with ReadTable, or open a format-v4 file
// out-of-core with OpenStore. A Table is safe for concurrent readers.
type Table struct {
	schema  *Schema
	rows    int
	layout  scramble.Layout
	floats  map[string]*FloatColumn
	cats    map[string]*CatColumn
	indexes map[string]*bitmap.BlockIndex
	catalog map[string]RangeBounds
	zones   map[string]*ZoneMap

	// store and pool are set only for out-of-core tables (OpenStore):
	// the column maps then hold metadata (dictionaries) with nil data
	// slices, and blocks page through the pool. See outofcore.go.
	store *blockstore.Store
	pool  *blockstore.Pool
}

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.rows }

// Layout returns the block layout of the scramble.
func (t *Table) Layout() scramble.Layout { return t.layout }

// Float returns the named continuous column, or an error.
func (t *Table) Float(name string) (*FloatColumn, error) {
	c, ok := t.floats[name]
	if !ok {
		return nil, fmt.Errorf("table: no float column %q", name)
	}
	return c, nil
}

// Cat returns the named categorical column, or an error.
func (t *Table) Cat(name string) (*CatColumn, error) {
	c, ok := t.cats[name]
	if !ok {
		return nil, fmt.Errorf("table: no categorical column %q", name)
	}
	return c, nil
}

// Index returns the block bitmap index for a categorical column, or an
// error.
func (t *Table) Index(name string) (*bitmap.BlockIndex, error) {
	ix, ok := t.indexes[name]
	if !ok {
		return nil, fmt.Errorf("table: no index for column %q", name)
	}
	return ix, nil
}

// Zones returns the per-block min/max zone map for a continuous
// column, or an error. Every float column of a built or loaded table
// has one.
func (t *Table) Zones(name string) (*ZoneMap, error) {
	z, ok := t.zones[name]
	if !ok {
		return nil, fmt.Errorf("table: no zone map for column %q", name)
	}
	return z, nil
}

// Bounds returns the catalog range bounds for a continuous column.
func (t *Table) Bounds(name string) (RangeBounds, error) {
	rb, ok := t.catalog[name]
	if !ok {
		return RangeBounds{}, fmt.Errorf("table: no catalog bounds for column %q", name)
	}
	return rb, nil
}

// Builder accumulates rows and produces a Table: it shuffles the rows
// into a scramble, dictionary-encodes categorical values, builds block
// bitmap indexes, and records catalog range bounds.
type Builder struct {
	schema    *Schema
	blockSize int

	floatVals map[string][]float64
	catVals   map[string][]uint32
	dicts     map[string]*dictBuilder
	rows      int
	widen     map[string]RangeBounds
	spent     bool
}

type dictBuilder struct {
	byValue map[string]uint32
	values  []string
}

func (d *dictBuilder) code(v string) uint32 {
	if c, ok := d.byValue[v]; ok {
		return c
	}
	c := uint32(len(d.values))
	d.byValue[v] = c
	d.values = append(d.values, v)
	return c
}

// NewBuilder returns a Builder for the schema; blockSize ≤ 0 selects the
// paper's 25-row blocks.
func NewBuilder(schema *Schema, blockSize int) *Builder {
	b := &Builder{
		schema:    schema,
		blockSize: blockSize,
		floatVals: map[string][]float64{},
		catVals:   map[string][]uint32{},
		dicts:     map[string]*dictBuilder{},
		widen:     map[string]RangeBounds{},
	}
	for _, c := range schema.Columns() {
		switch c.Kind {
		case Float:
			b.floatVals[c.Name] = nil
		case Categorical:
			b.catVals[c.Name] = nil
			b.dicts[c.Name] = &dictBuilder{byValue: map[string]uint32{}}
		}
	}
	return b
}

// Row is one input tuple: continuous values keyed by column name plus
// categorical values keyed by column name.
type Row struct {
	Floats map[string]float64
	Cats   map[string]string
}

// Append adds a row. Every schema column must be present.
func (b *Builder) Append(r Row) error {
	for _, c := range b.schema.Columns() {
		switch c.Kind {
		case Float:
			v, ok := r.Floats[c.Name]
			if !ok {
				return fmt.Errorf("table: row missing float column %q", c.Name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("table: column %q: non-finite value %v (range-based bounders need bounded data; drop or clamp at load time, as the paper does with its N/A rows)", c.Name, v)
			}
			b.floatVals[c.Name] = append(b.floatVals[c.Name], v)
		case Categorical:
			v, ok := r.Cats[c.Name]
			if !ok {
				return fmt.Errorf("table: row missing categorical column %q", c.Name)
			}
			b.catVals[c.Name] = append(b.catVals[c.Name], b.dicts[c.Name].code(v))
		}
	}
	b.rows++
	return nil
}

// AppendColumns adds many rows at once from parallel column slices; all
// slices must have equal length. It is the bulk path used by the
// dataset generators.
func (b *Builder) AppendColumns(floats map[string][]float64, cats map[string][]string) error {
	n := -1
	check := func(name string, l int) error {
		if n == -1 {
			n = l
		} else if l != n {
			return fmt.Errorf("table: column %q has %d rows, want %d", name, l, n)
		}
		return nil
	}
	for _, c := range b.schema.Columns() {
		switch c.Kind {
		case Float:
			vs, ok := floats[c.Name]
			if !ok {
				return fmt.Errorf("table: missing float column %q", c.Name)
			}
			if err := check(c.Name, len(vs)); err != nil {
				return err
			}
		case Categorical:
			vs, ok := cats[c.Name]
			if !ok {
				return fmt.Errorf("table: missing categorical column %q", c.Name)
			}
			if err := check(c.Name, len(vs)); err != nil {
				return err
			}
		}
	}
	if n <= 0 {
		return nil
	}
	for _, c := range b.schema.Columns() {
		switch c.Kind {
		case Float:
			for _, v := range floats[c.Name] {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("table: column %q: non-finite value %v", c.Name, v)
				}
			}
			b.floatVals[c.Name] = append(b.floatVals[c.Name], floats[c.Name]...)
		case Categorical:
			dict := b.dicts[c.Name]
			dst := b.catVals[c.Name]
			for _, v := range cats[c.Name] {
				dst = append(dst, dict.code(v))
			}
			b.catVals[c.Name] = dst
		}
	}
	b.rows += n
	return nil
}

// WidenBounds forces the catalog bounds of a continuous column to cover
// at least [a, b] in addition to the observed extrema, modelling
// domain-knowledge bounds that are wider than the data (the situation
// where RangeTrim shines).
func (b *Builder) WidenBounds(column string, a, bd float64) {
	b.widen[column] = RangeBounds{A: a, B: bd}
}

// Build shuffles the accumulated rows into a scramble using rng and
// returns the immutable Table. Build releases each accumulated source
// column as soon as it has been permuted, so peak memory is the output
// table plus one column — not twice the table, as copying all sources
// at once would cost. The Builder is spent afterwards.
func (b *Builder) Build(rng *rand.Rand) (*Table, error) {
	if b.spent {
		return nil, fmt.Errorf("table: Builder already built (source columns were released)")
	}
	b.spent = true
	if b.rows == 0 {
		return nil, fmt.Errorf("table: cannot build an empty table")
	}
	perm := scramble.Permutation(rng, b.rows)
	t := &Table{
		schema:  b.schema,
		rows:    b.rows,
		layout:  scramble.NewLayout(b.rows, b.blockSize),
		floats:  map[string]*FloatColumn{},
		cats:    map[string]*CatColumn{},
		indexes: map[string]*bitmap.BlockIndex{},
		catalog: map[string]RangeBounds{},
		zones:   map[string]*ZoneMap{},
	}
	for _, c := range b.schema.Columns() {
		switch c.Kind {
		case Float:
			src := b.floatVals[c.Name]
			b.floatVals[c.Name] = nil // release as soon as permuted
			dst := make([]float64, b.rows)
			lo, hi := src[0], src[0]
			for i, p := range perm {
				v := src[p]
				dst[i] = v
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if w, ok := b.widen[c.Name]; ok {
				if w.A < lo {
					lo = w.A
				}
				if w.B > hi {
					hi = w.B
				}
			}
			t.floats[c.Name] = &FloatColumn{Values: dst}
			t.catalog[c.Name] = RangeBounds{A: lo, B: hi}
			t.zones[c.Name] = ComputeZoneMap(dst, t.layout.BlockSize)
		case Categorical:
			src := b.catVals[c.Name]
			b.catVals[c.Name] = nil // release as soon as permuted
			dst := make([]uint32, b.rows)
			for i, p := range perm {
				dst[i] = src[p]
			}
			dict := b.dicts[c.Name]
			col := &CatColumn{
				Codes:   dst,
				Dict:    append([]string(nil), dict.values...),
				byValue: dict.byValue,
			}
			t.cats[c.Name] = col
			t.indexes[c.Name] = bitmap.NewBlockIndex(dst, len(col.Dict), t.layout.BlockSize)
		}
	}
	return t, nil
}

// NumRows returns how many rows have been appended so far.
func (b *Builder) NumRows() int { return b.rows }
