package table

import "fmt"

// FloatColumn stores a continuous column in scramble order.
type FloatColumn struct {
	Values []float64
}

// CatColumn stores a dictionary-encoded categorical column in scramble
// order: Codes[i] indexes into Dict.
type CatColumn struct {
	Codes []uint32
	Dict  []string

	byValue map[string]uint32
}

// NumValues returns the dictionary size.
func (c *CatColumn) NumValues() int { return len(c.Dict) }

// Code returns the dictionary code for a value and whether it exists.
func (c *CatColumn) Code(value string) (uint32, bool) {
	code, ok := c.byValue[value]
	return code, ok
}

// Value returns the string for a code.
func (c *CatColumn) Value(code uint32) string { return c.Dict[code] }

// ZoneMap holds per-block minima and maxima of a float column in
// scramble order: Min[b] and Max[b] bound every value of block b. The
// executor consults a zone map as a scan reaches each block, to skip
// blocks that provably contain no row satisfying a float-range atom —
// the continuous-column counterpart of the categorical block bitmap
// indexes. Like those indexes, zone maps are stored in the table file's
// header (format v4, the only one), and ReadTable and VerifyTable hold
// them to the rows: a block that contradicts its zone is a metadata
// fault.
type ZoneMap struct {
	Min, Max []float64
}

// NumBlocks returns the number of blocks covered.
func (z *ZoneMap) NumBlocks() int { return len(z.Min) }

// Possible reports whether block b can contain a value in [lo, hi].
func (z *ZoneMap) Possible(b int, lo, hi float64) bool {
	return z.Max[b] >= lo && z.Min[b] <= hi
}

// ComputeZoneMap builds the zone map of a column given its per-row
// values in scramble order and the block size in rows.
func ComputeZoneMap(values []float64, blockSize int) *ZoneMap {
	if blockSize <= 0 {
		panic("table: non-positive block size")
	}
	nb := (len(values) + blockSize - 1) / blockSize
	z := &ZoneMap{Min: make([]float64, nb), Max: make([]float64, nb)}
	for b := 0; b < nb; b++ {
		start := b * blockSize
		end := min(start+blockSize, len(values))
		lo, hi := values[start], values[start]
		for _, v := range values[start+1 : end] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		z.Min[b], z.Max[b] = lo, hi
	}
	return z
}

// RangeBounds is the catalog entry for a continuous column: the
// a-priori bounds [A, B] ⊇ [MIN, MAX] maintained at load time and fed to
// the range-based error bounders. The catalog may widen the bounds
// beyond the observed extrema (e.g. for columns with domain knowledge),
// which is always safe for the bounders.
type RangeBounds struct {
	A, B float64
}

// Width returns B − A.
func (rb RangeBounds) Width() float64 { return rb.B - rb.A }

// Contains reports whether v ∈ [A, B].
func (rb RangeBounds) Contains(v float64) bool { return v >= rb.A && v <= rb.B }

func (rb RangeBounds) String() string { return fmt.Sprintf("[%g, %g]", rb.A, rb.B) }
