// Package cliload holds the table/dimension loading helpers shared by
// the command-line binaries (ffquery, ffserved): repeatable flag
// values, the spec grammars, and the loaders that register persisted
// tables and CSV dimensions on an Engine.
package cliload

import (
	"fmt"
	"os"
	"strings"

	"fastframe"
)

// Specs is a repeatable string flag (flag.Var target): each occurrence
// appends one spec.
type Specs []string

func (s *Specs) String() string     { return strings.Join(*s, ",") }
func (s *Specs) Set(v string) error { *s = append(*s, v); return nil }

// ParseTableSpec splits a -table spec "name=path".
func ParseTableSpec(spec string) (name, path string, err error) {
	name, path, ok := strings.Cut(spec, "=")
	if !ok || name == "" || path == "" {
		return "", "", fmt.Errorf("-table %q: want name=path", spec)
	}
	return name, path, nil
}

// LoadTables reads each -table spec's persisted scramble (a file
// written by Table.WriteTo / ffgen -table) and registers it on the
// engine, returning the registered names in spec order. With a non-nil
// pool the files open out-of-core — header metadata resident, data
// blocks paged through the pool on demand — and fully resident
// otherwise. logf, if non-nil, receives one progress line per table.
func LoadTables(eng *fastframe.Engine, specs []string, pool *fastframe.BufferPool, logf func(format string, args ...any)) ([]string, error) {
	names := make([]string, 0, len(specs))
	for _, spec := range specs {
		name, path, err := ParseTableSpec(spec)
		if err != nil {
			return nil, err
		}
		tab, how, err := openTable(path, pool)
		if err != nil {
			return nil, fmt.Errorf("-table %s: %w", spec, err)
		}
		if err := eng.Register(name, tab); err != nil {
			return nil, err
		}
		names = append(names, name)
		if logf != nil {
			logf("table %s: %d rows in %d blocks (%s, %s)", name, tab.NumRows(), tab.NumBlocks(), path, how)
		}
	}
	return names, nil
}

// openTable opens one table file, out-of-core when a pool is given,
// resident otherwise.
func openTable(path string, pool *fastframe.BufferPool) (*fastframe.Table, string, error) {
	if pool != nil {
		tab, err := fastframe.OpenTable(path, pool)
		return tab, "out-of-core", err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	tab, err := fastframe.ReadTable(f)
	return tab, "resident", err
}

// ParseCSVTableSpec splits a -csv-table spec
// "name=path#Col:float,Col2:cat,..." — the schema rides after the '#'
// as comma-separated column:kind pairs (kind float or cat).
func ParseCSVTableSpec(spec string) (name, path string, cols []fastframe.Column, err error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return "", "", nil, fmt.Errorf("-csv-table %q: want name=path#col:kind,...", spec)
	}
	path, schema, ok := strings.Cut(rest, "#")
	if !ok || path == "" || schema == "" {
		return "", "", nil, fmt.Errorf("-csv-table %q: want name=path#col:kind,...", spec)
	}
	for _, part := range strings.Split(schema, ",") {
		col, kind, ok := strings.Cut(part, ":")
		if !ok || col == "" {
			return "", "", nil, fmt.Errorf("-csv-table %q: bad column spec %q (want col:float or col:cat)", spec, part)
		}
		switch kind {
		case "float":
			cols = append(cols, fastframe.Column{Name: col, Kind: fastframe.Float})
		case "cat":
			cols = append(cols, fastframe.Column{Name: col, Kind: fastframe.Categorical})
		default:
			return "", "", nil, fmt.Errorf("-csv-table %q: unknown kind %q (want float or cat)", spec, kind)
		}
	}
	return name, path, cols, nil
}

// LoadCSVTables builds a scramble from each -csv-table spec's CSV and
// registers it on the engine, returning the registered names in spec
// order. Rows stream straight from the file into the builder (nothing
// is materialized besides the builder's column buffers), and the build
// releases each source column as soon as it is permuted, so peak RSS is
// bounded by the output table plus one column. The shuffle is seeded,
// so identical inputs give identical scrambles.
func LoadCSVTables(eng *fastframe.Engine, specs []string, seed uint64, logf func(format string, args ...any)) ([]string, error) {
	names := make([]string, 0, len(specs))
	for _, spec := range specs {
		name, path, cols, err := ParseCSVTableSpec(spec)
		if err != nil {
			return nil, err
		}
		tb, err := fastframe.NewTableBuilder(cols...)
		if err != nil {
			return nil, fmt.Errorf("-csv-table %s: %w", spec, err)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		err = tb.LoadCSV(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("-csv-table %s: %w", spec, err)
		}
		tab, err := tb.Build(seed)
		if err != nil {
			return nil, fmt.Errorf("-csv-table %s: %w", spec, err)
		}
		if err := eng.Register(name, tab); err != nil {
			return nil, err
		}
		names = append(names, name)
		if logf != nil {
			logf("table %s: %d rows in %d blocks (%s, streamed from CSV)", name, tab.NumRows(), tab.NumBlocks(), path)
		}
	}
	return names, nil
}

// ParseDimSpec splits a -dim spec "name=path:key" (the path may itself
// contain ':'; the key is everything after the last one).
func ParseDimSpec(spec string) (name, path, key string, err error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return "", "", "", fmt.Errorf("-dim %q: want name=path:key", spec)
	}
	i := strings.LastIndex(rest, ":")
	if i <= 0 || i == len(rest)-1 {
		return "", "", "", fmt.Errorf("-dim %q: want name=path:key", spec)
	}
	return name, rest[:i], rest[i+1:], nil
}

// LoadDims registers each -dim spec's CSV as a dimension and attaches
// it to the fact column named by the spec's key on every table in
// factTables (the linkage is validated lazily, when a joining
// statement runs, so tables without that column are unaffected).
func LoadDims(eng *fastframe.Engine, factTables []string, specs []string, logf func(format string, args ...any)) error {
	for _, spec := range specs {
		name, path, key, err := ParseDimSpec(spec)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		d, err := fastframe.LoadDimensionCSV(name, key, f)
		f.Close()
		if err != nil {
			return err
		}
		if err := eng.RegisterDimension(name, d); err != nil {
			return err
		}
		for _, fact := range factTables {
			if err := eng.AttachDimension(fact, key, name); err != nil {
				return err
			}
		}
		if logf != nil {
			logf("dimension %s: %d rows (keyed by %s on %s)", name, d.NumRows(), key, strings.Join(factTables, ", "))
		}
	}
	return nil
}
