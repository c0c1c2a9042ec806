package exec

import (
	"testing"

	"fastframe/internal/query"
	"fastframe/internal/table"
)

// bindAt binds vs to the block containing a global row and returns the
// block-local index, letting these tests keep addressing rows globally.
// Resident tables bind to subslices, so rebinding per row is free.
func bindAt(tab *table.Table, vs *viewSet, row int) int {
	b := row / tab.Layout().BlockSize
	vs.bindSpan(b, b+1)
	s, _ := tab.Layout().BlockBounds(b)
	return row - s
}

func TestGrouperRoundTrip(t *testing.T) {
	tab := buildTestTable(t, 2000, 61)
	g, err := newGrouper(tab, []string{"airline", "origin"}, newColSet(tab))
	if err != nil {
		t.Fatal(err)
	}
	if g.numGroups() != 5*10 {
		t.Fatalf("numGroups = %d", g.numGroups())
	}
	for id := 0; id < g.numGroups(); id++ {
		codes := g.codesOf(id)
		if len(codes) != 2 {
			t.Fatalf("codesOf(%d) = %v", id, codes)
		}
		// Reconstruct the id from the codes (mixed radix).
		recon := int(codes[0])*10 + int(codes[1])
		if recon != id {
			t.Fatalf("codes round trip: %d -> %v -> %d", id, codes, recon)
		}
		key := g.keyOf(id)
		if key == "" {
			t.Fatalf("empty key for id %d", id)
		}
	}
}

func TestGrouperUngrouped(t *testing.T) {
	tab := buildTestTable(t, 500, 62)
	cs := newColSet(tab)
	g, err := newGrouper(tab, nil, cs)
	if err != nil {
		t.Fatal(err)
	}
	if g.numGroups() != 1 {
		t.Fatalf("numGroups = %d", g.numGroups())
	}
	if g.keyOf(0) != "" {
		t.Errorf("ungrouped key = %q", g.keyOf(0))
	}
	vs := cs.newViewSet()
	if g.groupOf(vs, bindAt(tab, vs, 0)) != 0 || g.groupOf(vs, bindAt(tab, vs, 499)) != 0 {
		t.Error("ungrouped groupOf != 0")
	}
	if len(g.codesOf(0)) != 0 {
		t.Error("ungrouped codesOf not empty")
	}
}

func TestGrouperGroupOfMatchesColumns(t *testing.T) {
	tab := buildTestTable(t, 3000, 63)
	cs := newColSet(tab)
	g, err := newGrouper(tab, []string{"airline", "origin"}, cs)
	if err != nil {
		t.Fatal(err)
	}
	al, _ := tab.Cat("airline")
	or, _ := tab.Cat("origin")
	vs := cs.newViewSet()
	for row := 0; row < tab.NumRows(); row += 17 {
		id := g.groupOf(vs, bindAt(tab, vs, row))
		codes := g.codesOf(id)
		if codes[0] != al.Codes[row] || codes[1] != or.Codes[row] {
			t.Fatalf("row %d: groupOf/codesOf disagree with columns", row)
		}
	}
}

func TestGrouperBlockContainsGroupConservative(t *testing.T) {
	tab := buildTestTable(t, 3000, 64)
	cs := newColSet(tab)
	g, _ := newGrouper(tab, []string{"airline", "origin"}, cs)
	al, _ := tab.Cat("airline")
	or, _ := tab.Cat("origin")
	layout := tab.Layout()
	vs := cs.newViewSet()
	for blk := 0; blk < layout.NumBlocks(); blk += 7 {
		s, e := layout.BlockBounds(blk)
		vs.bindSpan(blk, blk+1)
		present := map[int]bool{}
		for row := 0; row < e-s; row++ {
			present[g.groupOf(vs, row)] = true
		}
		for id := range present {
			if !g.blockContainsGroup(blk, g.codesOf(id)) {
				t.Fatalf("block %d: contains group %d but check says no", blk, id)
			}
		}
		// The converse may be false (conservative), but a group whose
		// airline code is absent from the block must be rejected.
		inBlock := map[uint32]bool{}
		for row := s; row < e; row++ {
			inBlock[al.Codes[row]] = true
		}
		for code := uint32(0); code < uint32(al.NumValues()); code++ {
			if !inBlock[code] {
				if g.blockContainsGroup(blk, []uint32{code, or.Codes[s]}) {
					t.Fatalf("block %d: absent airline %d accepted", blk, code)
				}
			}
		}
	}
}

func TestCompiledPredBlockMaskConsistent(t *testing.T) {
	tab := buildTestTable(t, 5000, 65)
	cs := newColSet(tab)
	cp, err := compilePredicate(tab, query.Predicate{}.
		AndCatIn("airline", "CC").
		AndCatIn("origin", "O0", "O3"), cs)
	if err != nil {
		t.Fatal(err)
	}
	layout := tab.Layout()
	vs := cs.newViewSet()
	for blk := 0; blk < layout.NumBlocks(); blk++ {
		s, e := layout.BlockBounds(blk)
		vs.bindSpan(blk, blk+1)
		any := false
		for row := 0; row < e-s; row++ {
			if cp.match(vs, row) {
				any = true
				break
			}
		}
		// A block with a matching row must be possible; the converse is
		// conservative (mask may keep blocks without joint matches).
		if any && !cp.blockPossible(blk) {
			t.Fatalf("block %d has matches but is pruned", blk)
		}
	}
}

// TestCatAtomPassBySetSize: the number of an atom's values present in
// the dictionary picks its filter pass — one compiles to the code
// compare, more to the dense table, none to the provably empty view —
// and duplicates and absent values do not count.
func TestCatAtomPassBySetSize(t *testing.T) {
	tab := buildTestTable(t, 2000, 5)
	for _, c := range []struct {
		values         []string
		compare, dense int
		empty          bool
	}{
		{values: []string{"CC"}, compare: 1},
		{values: []string{"CC", "CC", "ZZ"}, compare: 1},
		{values: []string{"CC", "DD"}, dense: 1},
		{values: []string{"ZZ"}, empty: true},
	} {
		cp, err := compilePredicate(tab, query.Predicate{}.AndCatIn("airline", c.values...), newColSet(tab))
		if err != nil {
			t.Fatal(err)
		}
		if len(cp.catSlots) != c.compare || len(cp.inSlots) != c.dense || cp.empty != c.empty {
			t.Errorf("IN %v: %d compare, %d dense, empty %v; want %d, %d, %v",
				c.values, len(cp.catSlots), len(cp.inSlots), cp.empty, c.compare, c.dense, c.empty)
		}
	}
}

func TestOptionsWithDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Delta != DefaultDelta || o.RoundRows <= 0 {
		t.Errorf("defaults wrong: %+v", o)
	}
	o2 := Options{Delta: 0.5, RoundRows: 7}.withDefaults()
	if o2.Delta != 0.5 || o2.RoundRows != 7 {
		t.Errorf("explicit values clobbered: %+v", o2)
	}
}
