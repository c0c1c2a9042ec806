package table

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"fastframe/internal/blockstore"
)

func TestPersistRoundTrip(t *testing.T) {
	orig := buildSmallTable(t)
	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != orig.NumRows() {
		t.Fatalf("rows %d vs %d", got.NumRows(), orig.NumRows())
	}
	if got.Layout() != orig.Layout() {
		t.Errorf("layout %+v vs %+v", got.Layout(), orig.Layout())
	}
	// Schema preserved in order.
	if got.Schema().NumColumns() != orig.Schema().NumColumns() {
		t.Fatal("column count differs")
	}
	for i := 0; i < orig.Schema().NumColumns(); i++ {
		if got.Schema().Column(i) != orig.Schema().Column(i) {
			t.Errorf("column %d differs", i)
		}
	}
	// Float data + catalog.
	gf, _ := got.Float("delay")
	of, _ := orig.Float("delay")
	for i := range of.Values {
		if gf.Values[i] != of.Values[i] {
			t.Fatalf("float row %d differs", i)
		}
	}
	grb, _ := got.Bounds("delay")
	orb, _ := orig.Bounds("delay")
	if grb != orb {
		t.Errorf("bounds %v vs %v", grb, orb)
	}
	// Categorical data, dictionary, and rebuilt index.
	gc, _ := got.Cat("airline")
	oc, _ := orig.Cat("airline")
	for i := range oc.Codes {
		if gc.Value(gc.Codes[i]) != oc.Value(oc.Codes[i]) {
			t.Fatalf("cat row %d differs", i)
		}
	}
	if code, ok := gc.Code("UA"); !ok || gc.Value(code) != "UA" {
		t.Error("dictionary lookup broken after load")
	}
	gix, err := got.Index("airline")
	if err != nil {
		t.Fatal(err)
	}
	oix, _ := orig.Index("airline")
	for b := 0; b < got.Layout().NumBlocks(); b++ {
		for c := uint32(0); c < uint32(gc.NumValues()); c++ {
			if gix.BlockContains(b, c) != oix.BlockContains(b, c) {
				t.Fatalf("rebuilt index differs at block %d code %d", b, c)
			}
		}
	}
}

func TestPersistLargeValues(t *testing.T) {
	schema := MustSchema(
		ColumnSpec{Name: "x", Kind: Float},
		ColumnSpec{Name: "g", Kind: Categorical},
	)
	b := NewBuilder(schema, 25)
	specials := []float64{0, -0, 1e308, -1e308, 5e-324, math.Pi}
	for i := 0; i < 10000; i++ {
		_ = b.Append(Row{
			Floats: map[string]float64{"x": specials[i%len(specials)]},
			Cats:   map[string]string{"g": strings.Repeat("k", i%7+1)},
		})
	}
	orig, err := b.Build(rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gf, _ := got.Float("x")
	of, _ := orig.Float("x")
	for i := range of.Values {
		if math.Float64bits(gf.Values[i]) != math.Float64bits(of.Values[i]) {
			t.Fatalf("bit-exact float round trip failed at %d", i)
		}
	}
}

func TestReadTableErrors(t *testing.T) {
	// Bad magic.
	if _, err := ReadTable(bytes.NewReader([]byte("NOPE0000"))); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated stream.
	orig := buildSmallTable(t)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{3, 8, 20, len(full) / 2, len(full) - 1} {
		if _, err := ReadTable(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Wrong version.
	bad := append([]byte(nil), full...)
	bad[4] = 99
	if _, err := ReadTable(bytes.NewReader(bad)); !errors.Is(err, blockstore.ErrUnsupportedVersion) {
		t.Errorf("version 99: %v, want ErrUnsupportedVersion", err)
	}
	// A 44-byte v1 file declaring 2^46 rows is refused on its version,
	// before any field behind it is believed (sizing a slice by that
	// one panics in makeslice).
	v1 := append([]byte("FFSC"), 1, 0, 0, 0, 25, 0, 0, 0)
	v1 = binary.LittleEndian.AppendUint64(v1, 1<<46)
	v1 = append(v1, make([]byte, 44-len(v1))...)
	if _, err := ReadTable(bytes.NewReader(v1)); !errors.Is(err, blockstore.ErrUnsupportedVersion) {
		t.Errorf("crafted v1 file: %v, want ErrUnsupportedVersion", err)
	}
}

// TestPersistZoneMapRoundTrip checks the file carries the zone maps
// through byte-exactly: the loaded table's per-block min/max match
// the original's without recomputation, and both match a recomputation
// from the loaded values.
func TestPersistZoneMapRoundTrip(t *testing.T) {
	orig := buildSmallTable(t)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	oz, err := orig.Zones("delay")
	if err != nil {
		t.Fatal(err)
	}
	gz, err := got.Zones("delay")
	if err != nil {
		t.Fatal(err)
	}
	if gz.NumBlocks() != oz.NumBlocks() || gz.NumBlocks() != got.Layout().NumBlocks() {
		t.Fatalf("zone map blocks %d vs %d (layout %d)", gz.NumBlocks(), oz.NumBlocks(), got.Layout().NumBlocks())
	}
	for b := 0; b < oz.NumBlocks(); b++ {
		if math.Float64bits(gz.Min[b]) != math.Float64bits(oz.Min[b]) ||
			math.Float64bits(gz.Max[b]) != math.Float64bits(oz.Max[b]) {
			t.Fatalf("zone map differs at block %d: [%v,%v] vs [%v,%v]", b, gz.Min[b], gz.Max[b], oz.Min[b], oz.Max[b])
		}
	}
	gf, _ := got.Float("delay")
	rz := ComputeZoneMap(gf.Values, got.Layout().BlockSize)
	for b := 0; b < rz.NumBlocks(); b++ {
		if gz.Min[b] != rz.Min[b] || gz.Max[b] != rz.Max[b] {
			t.Fatalf("persisted zone map inconsistent with values at block %d", b)
		}
	}
}
