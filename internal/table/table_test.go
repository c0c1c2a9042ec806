package table

import (
	"math/rand/v2"
	"sort"
	"strconv"
	"testing"
)

func testSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := NewSchema(
		ColumnSpec{Name: "delay", Kind: Float},
		ColumnSpec{Name: "airline", Kind: Categorical},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(ColumnSpec{Name: "", Kind: Float}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewSchema(
		ColumnSpec{Name: "x", Kind: Float},
		ColumnSpec{Name: "x", Kind: Categorical},
	); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSchema did not panic on bad schema")
		}
	}()
	MustSchema(ColumnSpec{Name: "", Kind: Float})
}

func TestSchemaLookup(t *testing.T) {
	s := testSchema(t)
	if s.NumColumns() != 2 {
		t.Fatalf("NumColumns = %d", s.NumColumns())
	}
	if s.Lookup("delay") != 0 || s.Lookup("airline") != 1 || s.Lookup("nope") != -1 {
		t.Error("Lookup wrong")
	}
	if s.Column(0).Kind != Float || s.Column(1).Kind != Categorical {
		t.Error("Column specs wrong")
	}
}

func TestKindString(t *testing.T) {
	if Float.String() != "float" || Categorical.String() != "categorical" {
		t.Error("Kind.String wrong")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind: %s", Kind(99))
	}
}

func buildSmallTable(t testing.TB) *Table {
	t.Helper()
	b := NewBuilder(testSchema(t), 4)
	airlines := []string{"AA", "UA", "DL"}
	for i := 0; i < 100; i++ {
		err := b.Append(Row{
			Floats: map[string]float64{"delay": float64(i)},
			Cats:   map[string]string{"airline": airlines[i%3]},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tab, err := b.Build(rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestBuildPreservesMultiset(t *testing.T) {
	tab := buildSmallTable(t)
	if tab.NumRows() != 100 {
		t.Fatalf("NumRows = %d", tab.NumRows())
	}
	fc, err := tab.Float("delay")
	if err != nil {
		t.Fatal(err)
	}
	vals := append([]float64(nil), fc.Values...)
	sort.Float64s(vals)
	for i, v := range vals {
		if v != float64(i) {
			t.Fatalf("multiset broken at %d: %v", i, v)
		}
	}
}

func TestBuildShuffles(t *testing.T) {
	tab := buildSmallTable(t)
	fc, _ := tab.Float("delay")
	inOrder := true
	for i, v := range fc.Values {
		if v != float64(i) {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Error("scramble left rows in insertion order (astronomically unlikely)")
	}
}

func TestRowAlignmentAcrossColumns(t *testing.T) {
	// delay i was inserted with airline index i%3: the scramble must
	// permute rows, not columns independently.
	tab := buildSmallTable(t)
	fc, _ := tab.Float("delay")
	cc, err := tab.Cat("airline")
	if err != nil {
		t.Fatal(err)
	}
	airlines := []string{"AA", "UA", "DL"}
	for i, v := range fc.Values {
		want := airlines[int(v)%3]
		if got := cc.Value(cc.Codes[i]); got != want {
			t.Fatalf("row %d: delay %v paired with %q, want %q", i, v, got, want)
		}
	}
}

func TestCatalogBounds(t *testing.T) {
	tab := buildSmallTable(t)
	rb, err := tab.Bounds("delay")
	if err != nil {
		t.Fatal(err)
	}
	if rb.A != 0 || rb.B != 99 {
		t.Errorf("bounds %v, want [0,99]", rb)
	}
	if !rb.Contains(50) || rb.Contains(-1) || rb.Contains(100) {
		t.Error("Contains wrong")
	}
	if rb.Width() != 99 {
		t.Errorf("Width = %v", rb.Width())
	}
}

func TestWidenBounds(t *testing.T) {
	b := NewBuilder(testSchema(t), 4)
	for i := 0; i < 10; i++ {
		_ = b.Append(Row{
			Floats: map[string]float64{"delay": 5},
			Cats:   map[string]string{"airline": "AA"},
		})
	}
	b.WidenBounds("delay", -100, 1000)
	tab, err := b.Build(rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := tab.Bounds("delay")
	if rb.A != -100 || rb.B != 1000 {
		t.Errorf("widened bounds %v", rb)
	}
}

func TestWidenBoundsNeverNarrows(t *testing.T) {
	b := NewBuilder(testSchema(t), 4)
	for i := 0; i < 10; i++ {
		_ = b.Append(Row{
			Floats: map[string]float64{"delay": float64(i) * 100},
			Cats:   map[string]string{"airline": "AA"},
		})
	}
	b.WidenBounds("delay", 200, 300) // narrower than the data
	tab, _ := b.Build(rand.New(rand.NewPCG(1, 1)))
	rb, _ := tab.Bounds("delay")
	if rb.A != 0 || rb.B != 900 {
		t.Errorf("bounds %v, want [0,900]: widen must not shrink", rb)
	}
}

func TestIndexConsistentWithData(t *testing.T) {
	tab := buildSmallTable(t)
	ix, err := tab.Index("airline")
	if err != nil {
		t.Fatal(err)
	}
	cc, _ := tab.Cat("airline")
	layout := tab.Layout()
	for blk := 0; blk < layout.NumBlocks(); blk++ {
		present := map[uint32]bool{}
		s, e := layout.BlockBounds(blk)
		for _, c := range cc.Codes[s:e] {
			present[c] = true
		}
		for code := uint32(0); code < uint32(cc.NumValues()); code++ {
			if got := ix.BlockContains(blk, code); got != present[code] {
				t.Fatalf("block %d code %d: index %v, data %v", blk, code, got, present[code])
			}
		}
	}
}

func TestDictionary(t *testing.T) {
	tab := buildSmallTable(t)
	cc, _ := tab.Cat("airline")
	if cc.NumValues() != 3 {
		t.Fatalf("NumValues = %d", cc.NumValues())
	}
	code, ok := cc.Code("UA")
	if !ok {
		t.Fatal("Code(UA) missing")
	}
	if cc.Value(code) != "UA" {
		t.Errorf("round trip failed: %q", cc.Value(code))
	}
	if _, ok := cc.Code("ZZ"); ok {
		t.Error("Code(ZZ) should not exist")
	}
}

func TestAppendMissingColumn(t *testing.T) {
	b := NewBuilder(testSchema(t), 4)
	if err := b.Append(Row{Floats: map[string]float64{"delay": 1}}); err == nil {
		t.Error("missing categorical accepted")
	}
	if err := b.Append(Row{Cats: map[string]string{"airline": "AA"}}); err == nil {
		t.Error("missing float accepted")
	}
}

func TestBuildEmptyFails(t *testing.T) {
	b := NewBuilder(testSchema(t), 4)
	if _, err := b.Build(rand.New(rand.NewPCG(1, 1))); err == nil {
		t.Error("empty build accepted")
	}
}

func TestMissingColumnAccessors(t *testing.T) {
	tab := buildSmallTable(t)
	if _, err := tab.Float("airline"); err == nil {
		t.Error("Float on categorical column accepted")
	}
	if _, err := tab.Cat("delay"); err == nil {
		t.Error("Cat on float column accepted")
	}
	if _, err := tab.Index("delay"); err == nil {
		t.Error("Index on float column accepted")
	}
	if _, err := tab.Bounds("airline"); err == nil {
		t.Error("Bounds on categorical column accepted")
	}
}

func TestAppendColumnsBulk(t *testing.T) {
	b := NewBuilder(testSchema(t), 8)
	n := 50
	delays := make([]float64, n)
	airlines := make([]string, n)
	for i := range delays {
		delays[i] = float64(i)
		airlines[i] = "C" + strconv.Itoa(i%5)
	}
	err := b.AppendColumns(map[string][]float64{"delay": delays}, map[string][]string{"airline": airlines})
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != n {
		t.Fatalf("NumRows = %d", b.NumRows())
	}
	tab, err := b.Build(rand.New(rand.NewPCG(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	cc, _ := tab.Cat("airline")
	if cc.NumValues() != 5 {
		t.Errorf("NumValues = %d, want 5", cc.NumValues())
	}
}

func TestAppendColumnsValidation(t *testing.T) {
	b := NewBuilder(testSchema(t), 8)
	// Length mismatch.
	err := b.AppendColumns(
		map[string][]float64{"delay": {1, 2, 3}},
		map[string][]string{"airline": {"A", "B"}},
	)
	if err == nil {
		t.Error("length mismatch accepted")
	}
	// Missing column.
	err = b.AppendColumns(map[string][]float64{}, map[string][]string{"airline": {"A"}})
	if err == nil {
		t.Error("missing float column accepted")
	}
	err = b.AppendColumns(map[string][]float64{"delay": {1}}, map[string][]string{})
	if err == nil {
		t.Error("missing cat column accepted")
	}
	// Empty append is a no-op.
	if err := b.AppendColumns(
		map[string][]float64{"delay": {}},
		map[string][]string{"airline": {}},
	); err != nil {
		t.Errorf("empty append: %v", err)
	}
	if b.NumRows() != 0 {
		t.Errorf("rows after failed appends = %d", b.NumRows())
	}
}

// TestComputeZoneMap pins the zone-map computation: per-block extrema,
// the partial last block, and the Possible intersection test.
func TestComputeZoneMap(t *testing.T) {
	vals := []float64{5, 1, 3, -2, 7, 10, 10, 10, 42}
	z := ComputeZoneMap(vals, 4) // blocks: [5,1,3,-2] [7,10,10,10] [42]
	if z.NumBlocks() != 3 {
		t.Fatalf("blocks = %d, want 3", z.NumBlocks())
	}
	wantMin := []float64{-2, 7, 42}
	wantMax := []float64{5, 10, 42}
	for b := range wantMin {
		if z.Min[b] != wantMin[b] || z.Max[b] != wantMax[b] {
			t.Errorf("block %d = [%v,%v], want [%v,%v]", b, z.Min[b], z.Max[b], wantMin[b], wantMax[b])
		}
	}
	if !z.Possible(0, 4, 6) || z.Possible(1, 11, 20) || !z.Possible(2, 42, 42) {
		t.Error("Possible intersection test wrong")
	}
	// Builder attaches the same zone map to built tables.
	tab := buildSmallTable(t)
	col, _ := tab.Float("delay")
	want := ComputeZoneMap(col.Values, tab.Layout().BlockSize)
	got, err := tab.Zones("delay")
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < want.NumBlocks(); b++ {
		if got.Min[b] != want.Min[b] || got.Max[b] != want.Max[b] {
			t.Fatalf("built zone map differs at block %d", b)
		}
	}
	if _, err := tab.Zones("nope"); err == nil {
		t.Error("unknown column accepted")
	}
}
