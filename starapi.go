package fastframe

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"

	"fastframe/internal/star"
)

// Dimension is a small dimension table in a star/snowflake schema:
// rows keyed by the value appearing in a fact table's foreign-key
// column, each carrying string attributes. Dimensions are stored
// exactly — only the fact table is sampled.
type Dimension struct {
	d *star.Dimension
}

// NewDimension returns an empty dimension table.
func NewDimension(name string) *Dimension {
	return &Dimension{d: star.NewDimension(name)}
}

// Add inserts (or replaces) the dimension row for key.
func (d *Dimension) Add(key string, attrs map[string]string) {
	d.d.Add(key, attrs)
}

// Name returns the dimension's name.
func (d *Dimension) Name() string { return d.d.Name() }

// NumRows returns the dimension's row count.
func (d *Dimension) NumRows() int { return d.d.NumRows() }

// Keys returns every dimension key, sorted.
func (d *Dimension) Keys() []string { return d.d.Keys() }

// KeysWhere returns the sorted keys whose attribute equals value. A
// row that does not define the attribute never matches — absent is
// distinct from the empty string.
func (d *Dimension) KeysWhere(attr, value string) []string { return d.d.KeysWhere(attr, value) }

// LoadDimensionCSV builds a dimension from a CSV stream with a header
// row: the keyColumn header names the column holding the dimension
// keys (the values a fact foreign-key column stores), and every other
// column becomes a string attribute. Empty attribute cells are stored
// as the empty string — distinct, under every dimension predicate,
// from an attribute that is absent altogether.
func LoadDimensionCSV(name, keyColumn string, r io.Reader) (*Dimension, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("fastframe: dimension %q: reading CSV header: %w", name, err)
	}
	keyIdx := -1
	for i, h := range header {
		if h == keyColumn {
			keyIdx = i
			break
		}
	}
	if keyIdx < 0 {
		return nil, fmt.Errorf("fastframe: dimension %q: CSV header %v has no key column %q", name, header, keyColumn)
	}
	d := NewDimension(name)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("fastframe: dimension %q: %w", name, err)
		}
		if rec[keyIdx] == "" {
			return nil, fmt.Errorf("fastframe: dimension %q: line %d has an empty key", name, line)
		}
		attrs := make(map[string]string, len(header)-1)
		for i, v := range rec {
			if i != keyIdx {
				attrs[header[i]] = v
			}
		}
		d.Add(rec[keyIdx], attrs)
	}
	return d, nil
}

// StarSchema binds dimension tables to the foreign-key columns of a
// fact Table, enabling approximate aggregation over join views
// (the paper's snowflake-schema extension): a dimension-attribute
// predicate compiles into a fact-side IN predicate, so all guarantees
// and block pruning carry over.
type StarSchema struct {
	t *Table
	s *star.Schema
}

// NewStarSchema returns a star schema over the fact table.
func NewStarSchema(fact *Table) *StarSchema {
	return &StarSchema{t: fact, s: star.NewSchema(fact.t)}
}

// Attach binds a dimension to a categorical fact column holding its
// keys.
func (ss *StarSchema) Attach(fkColumn string, d *Dimension) error {
	return ss.s.Attach(fkColumn, d.d)
}

// WhereDimension extends a query with the dimension predicate
// "dimension(fkColumn).attr = value", compiled to the fact side.
func (ss *StarSchema) WhereDimension(qb QueryBuilder, fkColumn, attr, value string) (QueryBuilder, error) {
	return ss.whereAll(qb, fkColumn, star.Eq(attr, value))
}

// WhereDimensionNot extends a query with the dimension predicate
// "dimension(fkColumn).attr != value". Rows that do not define the
// attribute never match (SQL semantics), so the compiled fact-side key
// set is the attribute-bearing complement, not the full complement.
func (ss *StarSchema) WhereDimensionNot(qb QueryBuilder, fkColumn, attr, value string) (QueryBuilder, error) {
	return ss.whereAll(qb, fkColumn, star.Ne(attr, value))
}

// WhereDimensionIn extends a query with the dimension predicate
// "dimension(fkColumn).attr IN (values...)".
func (ss *StarSchema) WhereDimensionIn(qb QueryBuilder, fkColumn, attr string, values ...string) (QueryBuilder, error) {
	return ss.whereAll(qb, fkColumn, star.In(attr, values...))
}

func (ss *StarSchema) whereAll(qb QueryBuilder, fkColumn string, preds ...star.AttrPred) (QueryBuilder, error) {
	pred, err := ss.s.CompileWhereAll(qb.q.Pred, fkColumn, preds...)
	if err != nil {
		return qb, err
	}
	qb.q.Pred = pred
	return qb, nil
}

// Query executes an approximate query against the fact table with
// context cancellation and functional options.
func (ss *StarSchema) Query(ctx context.Context, q QueryBuilder, opts ...Option) (*Result, error) {
	return ss.t.Query(ctx, q, opts...)
}

// RunExact evaluates the query exactly against the fact table.
func (ss *StarSchema) RunExact(q QueryBuilder) (*ExactResult, error) {
	return ss.t.QueryExact(context.Background(), q)
}
