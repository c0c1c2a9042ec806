package table

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"fastframe/internal/blockstore"
)

// genTable builds a randomized scramble whose columns exercise every
// segment codec: f_rand defeats delta coding (raw), f_smooth is a slow
// walk (XOR-delta), f_const is block-constant (const), c_run has long runs
// (RLE), c_hi is high-cardinality noise (bit-packed or raw).
func genTable(t testing.TB, rng *rand.Rand, rows, blockSize int) *Table {
	t.Helper()
	schema := MustSchema(
		ColumnSpec{Name: "f_rand", Kind: Float},
		ColumnSpec{Name: "f_smooth", Kind: Float},
		ColumnSpec{Name: "f_const", Kind: Float},
		ColumnSpec{Name: "c_run", Kind: Categorical},
		ColumnSpec{Name: "c_hi", Kind: Categorical},
	)
	b := NewBuilder(schema, blockSize)
	smooth := 100.0
	specials := []float64{0, math.Copysign(0, -1), 1e308, -5e-324, math.Pi}
	for i := 0; i < rows; i++ {
		smooth += rng.Float64() - 0.5
		fr := rng.NormFloat64() * 1e6
		if rng.IntN(50) == 0 {
			fr = specials[rng.IntN(len(specials))]
		}
		err := b.Append(Row{
			Floats: map[string]float64{
				"f_rand":   fr,
				"f_smooth": smooth,
				"f_const":  42.5,
			},
			Cats: map[string]string{
				"c_run": fmt.Sprintf("r%d", i/64%3),
				"c_hi":  fmt.Sprintf("v%d", rng.IntN(200)),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tab, err := b.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// assertTablesEqual checks got carries exactly orig's data: bit-exact
// floats, codes resolving to the same strings, identical bounds, zone
// maps, and bitmap indexes.
func assertTablesEqual(t *testing.T, orig, got *Table) {
	t.Helper()
	if got.NumRows() != orig.NumRows() || got.Layout() != orig.Layout() {
		t.Fatalf("shape: %d rows %+v vs %d rows %+v",
			got.NumRows(), got.Layout(), orig.NumRows(), orig.Layout())
	}
	for i := 0; i < orig.Schema().NumColumns(); i++ {
		spec := orig.Schema().Column(i)
		if got.Schema().Column(i) != spec {
			t.Fatalf("schema column %d differs", i)
		}
		switch spec.Kind {
		case Float:
			of, _ := orig.Float(spec.Name)
			gf, err := got.Float(spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			for r := range of.Values {
				if math.Float64bits(gf.Values[r]) != math.Float64bits(of.Values[r]) {
					t.Fatalf("%s: float row %d differs: %v vs %v", spec.Name, r, gf.Values[r], of.Values[r])
				}
			}
			ob, _ := orig.Bounds(spec.Name)
			if gb, _ := got.Bounds(spec.Name); gb != ob {
				t.Errorf("%s: bounds %v vs %v", spec.Name, gb, ob)
			}
			oz, _ := orig.Zones(spec.Name)
			gz, err := got.Zones(spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < oz.NumBlocks(); b++ {
				if math.Float64bits(gz.Min[b]) != math.Float64bits(oz.Min[b]) ||
					math.Float64bits(gz.Max[b]) != math.Float64bits(oz.Max[b]) {
					t.Fatalf("%s: zone map differs at block %d", spec.Name, b)
				}
			}
		case Categorical:
			oc, _ := orig.Cat(spec.Name)
			gc, err := got.Cat(spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			for r := range oc.Codes {
				if gc.Value(gc.Codes[r]) != oc.Value(oc.Codes[r]) {
					t.Fatalf("%s: cat row %d differs", spec.Name, r)
				}
			}
			gix, err := got.Index(spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < got.Layout().NumBlocks(); b++ {
				s, e := got.Layout().BlockBounds(b)
				for c := uint32(0); c < uint32(gc.NumValues()); c++ {
					want := false
					for r := s; r < e; r++ {
						if gc.Codes[r] == c {
							want = true
							break
						}
					}
					if gix.BlockContains(b, c) != want {
						t.Fatalf("%s: index wrong at block %d code %d", spec.Name, b, c)
					}
				}
			}
		}
	}
}

// TestCrossVersionRoundTrip is the format-compatibility property, per
// version a file can claim: for randomized tables across block sizes
// and ragged row counts, WriteTo (v4) is deterministic and round-trips
// bit-exactly through ReadTable; and the file relabelled v1, v2 or v3 —
// formats no longer read — is refused as an unsupported version rather
// than parsed.
func TestCrossVersionRoundTrip(t *testing.T) {
	configs := []struct{ rows, blockSize int }{
		{1, 25},
		{24, 25},   // single ragged block
		{50, 25},   // exact multiple
		{301, 7},   // ragged tail
		{1000, 25}, // many blocks
		{130, 1},   // block per row
	}
	for ci, cfg := range configs {
		rng := rand.New(rand.NewPCG(uint64(ci), 99))
		orig := genTable(t, rng, cfg.rows, cfg.blockSize)
		var buf, buf2 bytes.Buffer
		if _, err := orig.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := orig.WriteTo(&buf2); err != nil {
			t.Fatal(err)
		}
		for version := uint32(1); version <= blockstore.Version; version++ {
			t.Run(fmt.Sprintf("rows=%d/bs=%d/v%d", cfg.rows, cfg.blockSize, version), func(t *testing.T) {
				file := buf.Bytes()
				switch version {
				case blockstore.Version:
					if !bytes.Equal(file, buf2.Bytes()) {
						t.Error("serialization not deterministic")
					}
				default:
					file = bytes.Clone(file)
					binary.LittleEndian.PutUint32(file[4:], version)
					if _, err := ReadTable(bytes.NewReader(file)); !errors.Is(err, blockstore.ErrUnsupportedVersion) {
						t.Errorf("ReadTable of a v%d file: %v, want ErrUnsupportedVersion", version, err)
					}
					return
				}
				got, err := ReadTable(bytes.NewReader(file))
				if err != nil {
					t.Fatal(err)
				}
				assertTablesEqual(t, orig, got)
			})
		}
	}
}

// TestOpenStoreMatchesResident writes v4 to disk and opens it
// out-of-core through a pool small enough to force evictions, pinning
// every block of every column and comparing bit-exactly against the
// resident original. A second pass re-reads everything (all repins go
// through the same evict/reload machinery).
func TestOpenStoreMatchesResident(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	orig := genTable(t, rng, 2000, 25)
	path := filepath.Join(t.TempDir(), "t.ff")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orig.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	pool := blockstore.NewPool(4 << 10) // a handful of frames: constant churn
	defer pool.Close()
	got, err := OpenStore(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if !got.OutOfCore() {
		t.Fatal("OpenStore table not out-of-core")
	}

	nb := orig.Layout().NumBlocks()
	for pass := 0; pass < 2; pass++ {
		for _, name := range []string{"f_rand", "f_smooth", "f_const"} {
			ov, _ := orig.Float(name)
			fb, err := got.FloatBlocks(name)
			if err != nil {
				t.Fatal(err)
			}
			var fr *blockstore.Frame
			for b := 0; b < nb; b++ {
				s, e := orig.Layout().BlockBounds(b)
				if fr, err = fb.Pin(b, fr); err != nil {
					t.Fatalf("%s block %d: %v", name, b, err)
				}
				vals := fb.Rows(b, b+1, fr)
				if len(vals) != e-s {
					t.Fatalf("%s block %d: %d rows, want %d", name, b, len(vals), e-s)
				}
				for r := range vals {
					if math.Float64bits(vals[r]) != math.Float64bits(ov.Values[s+r]) {
						t.Fatalf("%s block %d row %d differs", name, b, r)
					}
				}
			}
			fb.Unpin(fr)
		}
		for _, name := range []string{"c_run", "c_hi"} {
			oc, _ := orig.Cat(name)
			cb, err := got.CatBlocks(name)
			if err != nil {
				t.Fatal(err)
			}
			var fr *blockstore.Frame
			for b := 0; b < nb; b++ {
				s, e := orig.Layout().BlockBounds(b)
				if fr, err = cb.Pin(b, fr); err != nil {
					t.Fatalf("%s block %d: %v", name, b, err)
				}
				codes := cb.Rows(b, b+1, fr)
				for r := range codes {
					if codes[r] != oc.Codes[s+r] {
						t.Fatalf("%s block %d row %d: code %d, want %d", name, b, r, codes[r], oc.Codes[s+r])
					}
				}
				_ = e
			}
			cb.Unpin(fr)
		}
	}
	st := pool.Stats()
	if st.PinnedFrames != 0 {
		t.Errorf("PinnedFrames = %d after the last Unpin", st.PinnedFrames)
	}
	if st.Evictions == 0 {
		t.Errorf("tiny pool saw no evictions: %+v", st)
	}
	if st.Hits+st.Misses == 0 || st.BytesRead == 0 {
		t.Errorf("pool counters did not move: %+v", st)
	}
}

// TestCrossVersionOpenStore opens the same table out-of-core as a v4
// file and relabelled v3: the v3 file is refused as an unsupported
// version, and every pinned block of the v4 one must match the
// resident original bit for bit, with Close handing its extents back to
// the shared pool.
func TestCrossVersionOpenStore(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	orig := genTable(t, rng, 500, 25)
	pool := blockstore.NewPool(1 << 20)
	defer pool.Close()
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	v3 := bytes.Clone(buf.Bytes())
	binary.LittleEndian.PutUint32(v3[4:], 3)
	path := filepath.Join(dir, "v3.ff")
	if err := os.WriteFile(path, v3, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(path, pool); !errors.Is(err, blockstore.ErrUnsupportedVersion) {
		t.Errorf("OpenStore of a v3 file: %v, want ErrUnsupportedVersion", err)
	}

	path = filepath.Join(dir, "v4.ff")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := OpenStore(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	nb := orig.Layout().NumBlocks()
	ov, _ := orig.Float("f_rand")
	fb, err := got.FloatBlocks("f_rand")
	if err != nil {
		t.Fatal(err)
	}
	oc, _ := orig.Cat("c_hi")
	cb, err := got.CatBlocks("c_hi")
	if err != nil {
		t.Fatal(err)
	}
	var fr, cfr *blockstore.Frame
	for b := 0; b < nb; b++ {
		s, _ := orig.Layout().BlockBounds(b)
		if fr, err = fb.Pin(b, fr); err != nil {
			t.Fatalf("f_rand block %d: %v", b, err)
		}
		vals := fb.Rows(b, b+1, fr)
		for r := range vals {
			if math.Float64bits(vals[r]) != math.Float64bits(ov.Values[s+r]) {
				t.Fatalf("f_rand block %d row %d differs", b, r)
			}
		}
		if cfr, err = cb.Pin(b, cfr); err != nil {
			t.Fatalf("c_hi block %d: %v", b, err)
		}
		codes := cb.Rows(b, b+1, cfr)
		for r := range codes {
			if codes[r] != oc.Codes[s+r] {
				t.Fatalf("c_hi block %d row %d differs", b, r)
			}
		}
	}
	fb.Unpin(fr)
	cb.Unpin(cfr)
	used := pool.Stats().UsedBytes
	if err := got.Close(); err != nil {
		t.Fatal(err)
	}
	// Close hands the table's extents back to the shared pool.
	if st := pool.Stats(); used == 0 || st.UsedBytes != 0 || st.PinnedFrames != 0 {
		t.Errorf("UsedBytes %d before Close, after: %+v", used, st)
	}
}
