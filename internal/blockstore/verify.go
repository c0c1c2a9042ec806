package blockstore

// Offline integrity verification: walk every segment of a table file
// through the directory, validate its checksum and its decode — codes
// held to their dictionary included — and the block index and zone map
// against the decoded block, and report per-column damage. This is the
// engine behind `ffgen -verify` and fastframe.VerifyTable.

import "fmt"

// maxReportedBlocks caps the per-column list of damaged block ids in a
// report; the count keeps going past the cap.
const maxReportedBlocks = 16

// VerifyColumn is one column's damage report.
type VerifyColumn struct {
	Name string
	Kind uint8
	// Blocks is the total block count; BadBlocks how many failed.
	Blocks, BadBlocks int
	// BadBlockIDs lists the first maxReportedBlocks damaged block ids.
	BadBlockIDs []int
	// Errors holds the classified error of each listed bad block.
	Errors []*BlockError
}

// VerifyReport is the result of verifying one file.
type VerifyReport struct {
	Path      string
	Version   uint32
	Rows      int
	BlockSize int
	NumBlocks int
	Cols      []VerifyColumn
	// BadBlocks is the total damaged segment count across columns.
	BadBlocks int
}

// OK reports whether every segment verified and decoded.
func (r *VerifyReport) OK() bool { return r.BadBlocks == 0 }

// Verify opens path and checks its integrity end to end: header and
// footer against their checksums and the catalog bounds against the
// zones, then every data segment — its CRC32C, then a full decode that
// holds each categorical code to its column's dictionary, exactly as a
// query reads it (decodeBlock), and last the decoded values against the
// planning metadata (checkPlanning). A file in any format version but
// v4, or with header or footer damage, fails the open and is returned
// as err with a nil report; a readable file returns a report, damaged
// segments and all.
func Verify(path string) (*VerifyReport, error) {
	s, err := Open(path, OpenOptions{})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return VerifyStore(s, path)
}

// VerifyStore walks every segment of an open store. The store's fault
// counters are bumped as usual; callers verifying a live table may want
// a separate Open.
func VerifyStore(s *Store, path string) (*VerifyReport, error) {
	m := s.Meta()
	nb := m.NumBlocks()
	rep := &VerifyReport{
		Path:      path,
		Version:   Version,
		Rows:      m.Rows,
		BlockSize: m.BlockSize,
		NumBlocks: nb,
		Cols:      make([]VerifyColumn, len(m.Cols)),
	}
	var fs []float64
	var cs []uint32
	var scratch []byte
	for ci := range m.Cols {
		vc := &rep.Cols[ci]
		vc.Name = m.Cols[ci].Name
		vc.Kind = m.Cols[ci].Kind
		vc.Blocks = nb
		for b := 0; b < nb; b++ {
			var err error
			if fs, cs, scratch, err = s.readBlock(ci, b, fs, cs, scratch, 0); err == nil {
				if err = m.checkPlanning(ci, b, fs, cs); err == nil {
					continue
				}
			}
			vc.BadBlocks++
			rep.BadBlocks++
			if len(vc.BadBlockIDs) < maxReportedBlocks {
				be := err.(*BlockError)
				be.Table = s.Label()
				vc.BadBlockIDs = append(vc.BadBlockIDs, b)
				vc.Errors = append(vc.Errors, be)
			}
		}
	}
	return rep, nil
}

// checkPlanning holds decoded block b of column ci — values fs or
// codes cs, by its kind — to the header's zone map or block index, in
// the unsafe direction only: a value outside its block's zone (NaN
// included) or a code whose block-index bit is clear is an ErrMetadata
// *BlockError naming the block, unlabelled. A bit set for an absent
// code, or a zone wider than its values, only costs pruning.
func (m *Meta) checkPlanning(ci, b int, fs []float64, cs []uint32) error {
	c := &m.Cols[ci]
	if c.Kind == KindFloat {
		lo, hi := c.ZoneMin[b], c.ZoneMax[b]
		for _, v := range fs {
			if !(v >= lo && v <= hi) {
				return &BlockError{Col: ci, Block: b, Kind: ErrMetadata, Err: fmt.Errorf("value %v outside the block's zone [%v, %v]", v, lo, hi)}
			}
		}
		return nil
	}
	w, bit := b>>6, uint64(1)<<(b&63)
	for _, code := range cs {
		if c.IndexWords[code][w]&bit == 0 {
			return &BlockError{Col: ci, Block: b, Kind: ErrMetadata, Err: fmt.Errorf("code %d (%q) present, its block-index bit clear", code, c.Dict[code])}
		}
	}
	return nil
}
