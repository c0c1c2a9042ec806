package table

import (
	"bufio"
	"fmt"
	"io"

	"fastframe/internal/blockstore"
)

// A table file is the blockstore's format v4 (blockstore/format.go):
// header-resident metadata — schema, catalog bounds, zone maps,
// dictionaries, block bitmap indexes — then each column as per-block
// compressed, checksummed segments, then a segment directory footer
// enabling out-of-core random access. This file is only the bridge
// between a Table and a blockstore.Meta; every byte is encoded,
// checked and decoded by the blockstore. v4 is the one version read:
// any other, v3 included, is blockstore.ErrUnsupportedVersion.
//
// The paper's scramble shuffle is paid once at build time; persistence
// lets it amortize across process restarts.

// WriteTo serializes the table: header metadata first, then each
// column's block segments, then the directory footer. The returned byte
// count is exact; errors are from the underlying writer or format.
// Out-of-core tables cannot be re-serialized — their data already lives
// in a block file.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	if t.store != nil {
		return 0, fmt.Errorf("table: cannot serialize an out-of-core table (its data is already on disk)")
	}
	meta := &blockstore.Meta{BlockSize: t.layout.BlockSize, Rows: t.rows}
	for i := 0; i < t.schema.NumColumns(); i++ {
		spec := t.schema.Column(i)
		switch spec.Kind {
		case Float:
			rb := t.catalog[spec.Name]
			z := t.zones[spec.Name]
			meta.Cols = append(meta.Cols, blockstore.ColumnMeta{
				Name:     spec.Name,
				Kind:     blockstore.KindFloat,
				BoundsLo: rb.A,
				BoundsHi: rb.B,
				ZoneMin:  z.Min,
				ZoneMax:  z.Max,
			})
		case Categorical:
			col := t.cats[spec.Name]
			ix := t.indexes[spec.Name]
			words := make([][]uint64, len(col.Dict))
			for c := range words {
				words[c] = ix.Blocks(uint32(c)).Words()
			}
			meta.Cols = append(meta.Cols, blockstore.ColumnMeta{
				Name:       spec.Name,
				Kind:       blockstore.KindCat,
				Dict:       col.Dict,
				IndexWords: words,
			})
		}
	}
	bw, err := blockstore.NewWriter(w, meta)
	if err != nil {
		return 0, err
	}
	for i := 0; i < t.schema.NumColumns(); i++ {
		spec := t.schema.Column(i)
		switch spec.Kind {
		case Float:
			err = bw.WriteFloatColumn(i, t.floats[spec.Name].Values)
		case Categorical:
			err = bw.WriteCatColumn(i, t.cats[spec.Name].Codes)
		}
		if err != nil {
			return 0, err
		}
	}
	return bw.Finish()
}

// ReadTable loads a table file fully resident, bitmap indexes and zone
// maps from its header. Every segment is checksummed and decoded, its
// categorical codes held to their dictionary and block-index bits and
// its values to their zone, by the blockstore: a segment that fails is
// a *blockstore.BlockError naming it.
func ReadTable(r io.Reader) (*Table, error) {
	m, floats, codes, err := blockstore.ReadSequential(bufio.NewReaderSize(r, 1<<20))
	if err != nil {
		return nil, err
	}
	t, err := fromStoreMeta(m)
	if err != nil {
		return nil, err
	}
	for ci, c := range m.Cols {
		switch c.Kind {
		case blockstore.KindFloat:
			t.floats[c.Name].Values = floats[ci]
		case blockstore.KindCat:
			t.cats[c.Name].Codes = codes[ci]
		}
	}
	return t, nil
}
