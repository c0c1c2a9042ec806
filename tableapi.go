package fastframe

import (
	"io"
	"math/rand/v2"

	"fastframe/internal/flights"
	"fastframe/internal/table"
)

// ColumnKind classifies a table column.
type ColumnKind int

const (
	// Float is a continuous column; aggregates run over these and the
	// catalog tracks their range bounds.
	Float ColumnKind = iota
	// Categorical is a dictionary-encoded string column; predicates and
	// GROUP BY clauses use these, each backed by a block bitmap index.
	Categorical
)

// Column declares one column of a table schema.
type Column struct {
	Name string
	Kind ColumnKind
}

// Table is an immutable scramble ready for approximate querying. Safe
// for concurrent readers.
type Table struct {
	t *table.Table
}

// NumRows returns the table's row count.
func (t *Table) NumRows() int { return t.t.NumRows() }

// NumBlocks returns the number of storage blocks in the scramble.
func (t *Table) NumBlocks() int { return t.t.Layout().NumBlocks() }

// ColumnBounds returns the catalog range bounds [a, b] of a continuous
// column.
func (t *Table) ColumnBounds(name string) (a, b float64, err error) {
	rb, err := t.t.Bounds(name)
	if err != nil {
		return 0, 0, err
	}
	return rb.A, rb.B, nil
}

// CategoricalValues returns the dictionary of a categorical column.
func (t *Table) CategoricalValues(name string) ([]string, error) {
	col, err := t.t.Cat(name)
	if err != nil {
		return nil, err
	}
	return append([]string(nil), col.Dict...), nil
}

// TableBuilder accumulates rows and produces a Table (performing the
// one-time scramble shuffle, dictionary encoding, bitmap indexing and
// catalog bound collection).
type TableBuilder struct {
	b *table.Builder
}

// NewTableBuilder returns a builder over the given schema with the
// paper's 25-row blocks.
func NewTableBuilder(cols ...Column) (*TableBuilder, error) {
	return NewTableBuilderBlockSize(0, cols...)
}

// NewTableBuilderBlockSize is NewTableBuilder with an explicit block
// size (rows per block); blockSize ≤ 0 selects the default of 25.
func NewTableBuilderBlockSize(blockSize int, cols ...Column) (*TableBuilder, error) {
	specs := make([]table.ColumnSpec, len(cols))
	for i, c := range cols {
		kind := table.Float
		if c.Kind == Categorical {
			kind = table.Categorical
		}
		specs[i] = table.ColumnSpec{Name: c.Name, Kind: kind}
	}
	schema, err := table.NewSchema(specs...)
	if err != nil {
		return nil, err
	}
	return &TableBuilder{b: table.NewBuilder(schema, blockSize)}, nil
}

// AppendRow adds one row; every schema column must be present in the
// appropriate map.
func (tb *TableBuilder) AppendRow(floats map[string]float64, cats map[string]string) error {
	return tb.b.Append(table.Row{Floats: floats, Cats: cats})
}

// AppendColumns bulk-adds rows from parallel column slices.
func (tb *TableBuilder) AppendColumns(floats map[string][]float64, cats map[string][]string) error {
	return tb.b.AppendColumns(floats, cats)
}

// WidenBounds forces the catalog bounds of a continuous column to cover
// at least [a, b] (catalog bounds may be wider than the data; the error
// bounders only require [a,b] ⊇ [MIN,MAX]).
func (tb *TableBuilder) WidenBounds(column string, a, b float64) {
	tb.b.WidenBounds(column, a, b)
}

// NumRows returns the rows appended so far.
func (tb *TableBuilder) NumRows() int { return tb.b.NumRows() }

// Build shuffles the rows into a scramble using the seed and returns
// the immutable Table.
func (tb *TableBuilder) Build(seed uint64) (*Table, error) {
	t, err := tb.b.Build(rand.New(rand.NewPCG(seed, 0xf457f7a)))
	if err != nil {
		return nil, err
	}
	return &Table{t: t}, nil
}

// LoadCSV reads a CSV stream with a header row into the builder:
// header names are matched against the schema, continuous columns are
// parsed as floats. Combine with WidenBounds before Build for wider
// a-priori catalog bounds.
func (tb *TableBuilder) LoadCSV(r io.Reader) error {
	return table.LoadCSVInto(tb.b, r)
}

// WriteTo serializes the table (columns, dictionaries, catalog bounds,
// zone maps, bitmap indexes, scrambled row order) as a table file —
// always the current format, v4 — so the one-time scramble shuffle
// amortizes across process restarts. Load it resident with ReadTable or
// out-of-core with OpenTable.
func (t *Table) WriteTo(w io.Writer) (int64, error) { return t.t.WriteTo(w) }

// ReadTable loads a table file written by WriteTo fully resident. Files
// of the previous format, v3, still load (and WriteTo re-saves them as
// v4); anything older fails with ErrUnsupportedVersion.
func ReadTable(r io.Reader) (*Table, error) {
	t, err := table.ReadTable(r)
	if err != nil {
		return nil, err
	}
	return &Table{t: t}, nil
}

// GenerateFlights synthesizes the simulated Flights evaluation dataset
// (columns Origin, Airline, DepDelay, DepTime, DayOfWeek) with the
// structural properties of the paper's workload. Identical arguments
// generate identical tables.
func GenerateFlights(rows int, seed uint64) (*Table, error) {
	t, err := flights.Generate(flights.Config{Rows: rows, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &Table{t: t}, nil
}
