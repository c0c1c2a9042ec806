package fastframe

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"sort"

	"fastframe/internal/sql"
)

// Dimension is a small dimension table in a star/snowflake schema:
// rows keyed by the value appearing in a fact table's foreign-key
// column (or, a snowflake level down, in a parent dimension's
// attribute), each carrying string attributes. Dimensions are stored
// exactly — only the fact table is sampled — and are queried through
// SQL JOIN once registered on an Engine (RegisterDimension,
// AttachDimension).
type Dimension struct {
	name  string
	rows  map[string]map[string]string // key → attribute → value
	attrs map[string]bool              // every attribute some row defines
}

// NewDimension returns an empty dimension table.
func NewDimension(name string) *Dimension {
	return &Dimension{name: name, rows: map[string]map[string]string{}, attrs: map[string]bool{}}
}

// Add inserts (or replaces) the dimension row for key.
func (d *Dimension) Add(key string, attrs map[string]string) {
	row := make(map[string]string, len(attrs))
	for k, v := range attrs {
		row[k] = v
		d.attrs[k] = true
	}
	d.rows[key] = row
}

// Name returns the dimension's name.
func (d *Dimension) Name() string { return d.name }

// NumRows returns the dimension's row count.
func (d *Dimension) NumRows() int { return len(d.rows) }

// keysMatching returns the sorted keys whose rows satisfy every
// predicate; with none it returns every key, since a bare JOIN is still
// an inner join. A row that does not define an attribute never matches
// a predicate on it — absent is distinct from the empty string under
// =, != and IN alike (SQL NULL semantics). A predicate on an attribute no row
// defines is an error: it almost certainly names a typo, not an empty
// view.
func (d *Dimension) keysMatching(preds []sql.DimPred) ([]string, error) {
	for _, p := range preds {
		if !d.attrs[p.Attr] {
			return nil, fmt.Errorf("dimension %q has no attribute %q", d.name, p.Attr)
		}
	}
	var keys []string
	for key, row := range d.rows {
		if rowMatches(row, preds) {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// rowMatches reports whether one dimension row satisfies every
// predicate.
func rowMatches(row map[string]string, preds []sql.DimPred) bool {
	for _, p := range preds {
		v, ok := row[p.Attr]
		if !ok || slices.Contains(p.Values, v) == (p.Op == sql.PredNe) {
			return false
		}
	}
	return true
}

// LoadDimensionCSV builds a dimension from a CSV stream with a header
// row: the keyColumn header names the column holding the dimension
// keys (the values a fact foreign-key column stores), and every other
// column becomes a string attribute. Empty attribute cells are stored
// as the empty string — distinct, under every dimension predicate,
// from an attribute that is absent altogether. An empty or repeated
// key is refused with the line(s) it appears on.
func LoadDimensionCSV(name, keyColumn string, r io.Reader) (*Dimension, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("fastframe: dimension %q: reading CSV header: %w", name, err)
	}
	keyIdx := slices.Index(header, keyColumn)
	if keyIdx < 0 {
		return nil, fmt.Errorf("fastframe: dimension %q: CSV header %v has no key column %q", name, header, keyColumn)
	}
	d := NewDimension(name)
	lineOf := map[string]int{} // key → line it was first read on
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("fastframe: dimension %q: %w", name, err)
		}
		key := rec[keyIdx]
		line, _ := cr.FieldPos(keyIdx)
		if key == "" {
			return nil, fmt.Errorf("fastframe: dimension %q: line %d has an empty key", name, line)
		}
		if first, dup := lineOf[key]; dup {
			return nil, fmt.Errorf("fastframe: dimension %q: line %d repeats key %q of line %d", name, line, key, first)
		}
		lineOf[key] = line
		attrs := make(map[string]string, len(header)-1)
		for i, v := range rec {
			if i != keyIdx {
				attrs[header[i]] = v
			}
		}
		d.Add(key, attrs)
	}
	return d, nil
}
