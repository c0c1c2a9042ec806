package exec

import (
	"fmt"
	"strings"

	"fastframe/internal/bitmap"
	"fastframe/internal/query"
	"fastframe/internal/table"
)

// compiledPred is a query predicate resolved against a concrete table:
// each categorical atom — a set of values, equality being the one-value
// set — becomes a code check and a static block-level mask; float
// ranges become per-row value checks plus zone-map block pruning,
// checked as the scan reaches each block. Columns are referenced by
// viewSet slot, so the same compiled predicate evaluates over resident
// subslices and pinned out-of-core frames alike, with span-local row
// indexing. The hot path is filter, which evaluates the conjunction
// column-at-a-time over a span's selection vector; the row-at-a-time
// match is kept as the reference interpreter for the kernel-equivalence
// property tests.
type compiledPred struct {
	// An atom with exactly one code in the dictionary compiles to a
	// compare against that code (catCodes, catSlots); any larger set to
	// a dense membership table indexed by dictionary code, one
	// bounds-checked load per row (inDense, inSlots).
	catCodes []uint32
	catSlots []int
	inDense  [][]bool
	inSlots  []int

	ranges     []query.FloatRange
	rangeSlots []int
	zones      []*table.ZoneMap // zones[i] is ranges[i]'s column's zone map

	// blockMask, if non-nil, marks blocks that can contain matching
	// rows: the intersection, over the categorical atoms, of the union
	// of the block bitmaps of each atom's codes. Blocks outside it, and
	// blocks a range atom's zone map rules out, are skipped without
	// being fetched, by every strategy (§5.2's Scan "may leverage
	// bitmaps for evaluation of whether a block contains tuples that
	// satisfy a fixed predicate").
	blockMask *bitmap.Bitset

	// empty is set when a categorical atom has no value in the
	// dictionary: the view is provably empty. The check is hoisted out
	// of the per-row path — blockPossible answers false for every
	// block, so an empty view never fetches and never matches.
	empty bool
}

func compilePredicate(t *table.Table, p query.Predicate, cs *colSet) (*compiledPred, error) {
	cp := &compiledPred{}
	for _, atom := range p.CatIn {
		col, err := t.Cat(atom.Column)
		if err != nil {
			return nil, err
		}
		ix, err := t.Index(atom.Column)
		if err != nil {
			return nil, err
		}
		dense := make([]bool, col.NumValues())
		var codes []uint32 // the atom's distinct codes in the dictionary
		union := bitmap.NewBitset(ix.NumBlocks())
		for _, v := range atom.Values {
			code, ok := col.Code(v)
			if !ok || dense[code] {
				continue // absent values cannot match
			}
			dense[code] = true
			codes = append(codes, code)
			union.OrInto(ix.Blocks(code))
		}
		if len(codes) == 0 {
			cp.empty = true
			continue
		}
		slot, err := cs.catSlot(atom.Column)
		if err != nil {
			return nil, err
		}
		if len(codes) == 1 {
			cp.catSlots = append(cp.catSlots, slot)
			cp.catCodes = append(cp.catCodes, codes[0])
		} else {
			cp.inSlots = append(cp.inSlots, slot)
			cp.inDense = append(cp.inDense, dense)
		}
		if cp.blockMask == nil {
			cp.blockMask = union
		} else {
			cp.blockMask.AndInto(union)
		}
	}
	for _, r := range p.Ranges {
		slot, err := cs.floatSlot(r.Column)
		if err != nil {
			return nil, err
		}
		// Zone-map pruning: a block whose [min, max] does not intersect
		// [Lo, Hi] provably contains no matching row, so blockPossible
		// rejects it exactly like a categorical bitmap miss. Over a
		// scramble this pays off for selective tail predicates — the
		// more selective the range, the more blocks hold no qualifying
		// row at all. The check runs on the blocks a scan reaches, not
		// on every block of the table up front.
		zm, err := t.Zones(r.Column)
		if err != nil {
			return nil, err
		}
		cp.rangeSlots = append(cp.rangeSlots, slot)
		cp.ranges = append(cp.ranges, r)
		cp.zones = append(cp.zones, zm)
	}
	return cp, nil
}

// matchAll reports whether the predicate has no atoms at all, so every
// row of every block matches.
func (cp *compiledPred) matchAll() bool {
	return !cp.empty && len(cp.catSlots) == 0 && len(cp.inSlots) == 0 && len(cp.rangeSlots) == 0
}

// filter keeps the rows of sel — span-local indices into the bound
// views, in scan order — that pass every predicate atom, compacting sel
// in place. Each atom makes one pass over the survivors of the last,
// with no branch on the outcome (sel[k] = r; k += match), so its cost
// does not depend on how selective or how predictable it is. Atom order
// — one-code compares, membership tables, ranges — matches the
// row-at-a-time reference, so the surviving set is identical; sel only
// ever holds rows of blocks blockPossible admitted, which is where the
// hoisted empty check lives.
func (cp *compiledPred) filter(vs *viewSet, sel []int32) []int32 {
	for i, slot := range cp.catSlots {
		code, codes := cp.catCodes[i], vs.cvals[slot]
		k := 0
		for _, r := range sel {
			sel[k] = r
			k += b2i(codes[r] == code)
		}
		sel = sel[:k]
	}
	for i, slot := range cp.inSlots {
		dense, codes := cp.inDense[i], vs.cvals[slot]
		k := 0
		for _, r := range sel {
			sel[k] = r
			k += b2i(dense[codes[r]])
		}
		sel = sel[:k]
	}
	for i, slot := range cp.rangeSlots {
		lo, hi, vals := cp.ranges[i].Lo, cp.ranges[i].Hi, vs.fvals[slot]
		k := 0
		for _, r := range sel {
			v := vals[r]
			sel[k] = r
			k += b2i(v >= lo) & b2i(v <= hi)
		}
		sel = sel[:k]
	}
	return sel
}

// b2i is 1 for true and 0 for false; the compiler turns it into a flag
// move, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// match reports whether the bound views' row passes every predicate
// atom. This is the row-at-a-time reference interpreter: the
// equivalence property tests pin filter to it, and the scalar fallback
// kernel uses it. The provably-empty case is hoisted to blockPossible,
// which rejects every block up front, so match no longer tests it per
// row.
func (cp *compiledPred) match(vs *viewSet, row int) bool {
	for i, slot := range cp.catSlots {
		if vs.cvals[slot][row] != cp.catCodes[i] {
			return false
		}
	}
	for i, slot := range cp.inSlots {
		if !cp.inDense[i][vs.cvals[slot][row]] {
			return false
		}
	}
	for i, slot := range cp.rangeSlots {
		v := vs.fvals[slot][row]
		if v < cp.ranges[i].Lo || v > cp.ranges[i].Hi {
			return false
		}
	}
	return true
}

// blockPossible reports whether a block can contain matching rows
// according to the static prune (categorical bitmaps ∧ zone maps).
func (cp *compiledPred) blockPossible(block int) bool {
	if cp.empty || cp.blockMask != nil && !cp.blockMask.Get(block) {
		return false
	}
	for i, zm := range cp.zones {
		if !zm.Possible(block, cp.ranges[i].Lo, cp.ranges[i].Hi) {
			return false
		}
	}
	return true
}

// grouper maps rows to dense group IDs over the GROUP BY columns using
// mixed-radix dictionary codes, and renders group keys for output. The
// dictionary metadata (cols) is always resident; per-row codes are read
// through viewSet slots.
type grouper struct {
	cols    []*table.CatColumn
	slots   []int // viewSet cat slots of the GROUP BY columns
	indexes []*bitmap.BlockIndex
	radix   []int
	total   int
}

func newGrouper(t *table.Table, groupBy []string, cs *colSet) (*grouper, error) {
	g := &grouper{total: 1}
	for _, name := range groupBy {
		col, err := t.Cat(name)
		if err != nil {
			return nil, fmt.Errorf("GROUP BY: %w", err)
		}
		ix, err := t.Index(name)
		if err != nil {
			return nil, err
		}
		slot, err := cs.catSlot(name)
		if err != nil {
			return nil, err
		}
		g.cols = append(g.cols, col)
		g.slots = append(g.slots, slot)
		g.indexes = append(g.indexes, ix)
		g.radix = append(g.radix, col.NumValues())
		g.total *= col.NumValues()
	}
	return g, nil
}

// numGroups returns the upper bound on the number of aggregate views
// (the product of dictionary sizes; 1 with no GROUP BY). The paper
// divides δ by this count to preserve guarantees across views.
func (g *grouper) numGroups() int { return g.total }

// isGlobal reports whether there is no GROUP BY (one global view).
func (g *grouper) isGlobal() bool { return len(g.cols) == 0 }

// groupOf returns the dense group ID of the bound views' row (0 with no
// GROUP BY).
func (g *grouper) groupOf(vs *viewSet, row int) int {
	id := 0
	for i, slot := range g.slots {
		id = id*g.radix[i] + int(vs.cvals[slot][row])
	}
	return id
}

// keyOf renders the group key ("ORD" or "3|ORD" for composites).
func (g *grouper) keyOf(id int) string {
	if len(g.cols) == 0 {
		return ""
	}
	parts := make([]string, len(g.cols))
	for i := len(g.cols) - 1; i >= 0; i-- {
		r := g.radix[i]
		parts[i] = g.cols[i].Value(uint32(id % r))
		id /= r
	}
	return strings.Join(parts, "|")
}

// codesOf returns the per-column dictionary codes of a group ID.
func (g *grouper) codesOf(id int) []uint32 {
	codes := make([]uint32, len(g.cols))
	for i := len(g.cols) - 1; i >= 0; i-- {
		r := g.radix[i]
		codes[i] = uint32(id % r)
		id /= r
	}
	return codes
}

// blocksWithGroup returns, for the 64 blocks of bitmap word w, which can
// contain rows of the group: bit i is set when each group column's value
// appears in block 64·w+i (all ones with no GROUP BY).
func (g *grouper) blocksWithGroup(w int, codes []uint32) uint64 {
	m := ^uint64(0)
	for i, ix := range g.indexes {
		m &= ix.Blocks(codes[i]).Words()[w]
	}
	return m
}
