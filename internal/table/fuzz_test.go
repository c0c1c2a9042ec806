package table

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"fastframe/internal/blockstore"
	"fastframe/internal/testutil"
)

// FuzzLoadCSV drives arbitrary byte streams through the CSV loader and
// the subsequent scramble build. Malformed input — missing columns,
// ragged records, unparseable floats, exotic quoting — must surface as
// an error, never as a panic, and accepted input must build a table
// whose row count matches what the loader ingested.
func FuzzLoadCSV(f *testing.F) {
	seeds := []string{
		"v,g\n1.5,a\n2.5,b\n",
		"g,v\nx,1\ny,2\nz,-3.25\n",
		"v,g,extra\n1,a,ignored\n2,b,also\n",
		"v,g\n", // header only
		"v,g\n1.5\n",
		"v,g\nnot-a-number,a\n",
		"v,g\n\"1.5\",\"quo,ted\"\n",
		"v,g\n1e308,a\n-1e308,b\nNaN,c\n",
		"wrong,header\n1,2\n",
		"", "v", "\xff\xfe", "v,g\r\n1,a\r\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		schema := MustSchema(
			ColumnSpec{Name: "v", Kind: Float},
			ColumnSpec{Name: "g", Kind: Categorical},
		)
		b := NewBuilder(schema, 7)
		if err := LoadCSVInto(b, strings.NewReader(data)); err != nil {
			return
		}
		rows := b.NumRows()
		tab, err := b.Build(rand.New(rand.NewPCG(1, 2)))
		if err != nil {
			// An empty load may legitimately fail to build; anything
			// with rows must build.
			if rows > 0 {
				t.Errorf("loaded %d rows but build failed: %v", rows, err)
			}
			return
		}
		if tab.NumRows() != rows {
			t.Errorf("built %d rows from %d loaded", tab.NumRows(), rows)
		}
	})
}

// FuzzReadTable drives arbitrary bytes through the resident table-file
// reader — header, segment decoders, footer, v3 and v4. Whatever the
// input, ReadTable returns a table or an error, never a panic; and a
// table it returns is one the writer can express: written out and read
// back, it writes the same bytes again. The corpus in testdata/fuzz adds
// three files with blocks of 2^16 rows, the format's cap: two whose
// headers parse and promise far more than follows (2^42 rows with no
// segment; a 2.6 GB segment) — blockstore's
// TestCorruptHeaderBoundedAllocation holds files like them to an
// allocation bound — and one whole file whose one block is constant:
// nine bytes that decode to 2^16 values, the most any block may hold.
func FuzzReadTable(f *testing.F) {
	var v4 bytes.Buffer
	if _, err := buildSmallTable(f).WriteTo(&v4); err != nil {
		f.Fatal(err)
	}
	v3, err := os.ReadFile("testdata/v3_small.ffsc")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v4.Bytes())
	f.Add(v3)
	for n := 0; n < testutil.HeaderLen(v4.Bytes()); n++ {
		f.Add(v4.Bytes()[:n]) // the header cut short at every byte
	}
	f.Fuzz(func(t *testing.T, file []byte) {
		tab, err := ReadTable(bytes.NewReader(file))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if _, err := tab.WriteTo(&first); err != nil {
			t.Fatalf("a table that was read cannot be written: %v", err)
		}
		again, err := ReadTable(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("a table that was written cannot be read: %v", err)
		}
		if _, err := again.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Error("write, read, write: the second file differs from the first")
		}
	})
}

// FuzzOpenStore drives arbitrary bytes through the out-of-core path:
// OpenStore's header and footer parse, then a pin of every block of
// every column through a 64 KiB pool — the extent reads, the checksum
// and decode of each block on first use, and the per-block re-reads
// that follow a failure. Whatever the input, nothing panics: the file
// fails to open, or each pin succeeds or fails with a
// *blockstore.BlockError naming its block, and no extent stays pinned
// once every frame is unpinned. Where ReadTable accepts the same bytes,
// every block a pin made readable holds ReadTable's rows. Seeds: the
// v4 and v3 fixtures, the header cut short at every byte, and the v4
// file with its footer (directory, checksum, trailer) cut short at
// every byte.
func FuzzOpenStore(f *testing.F) {
	var v4 bytes.Buffer
	if _, err := buildSmallTable(f).WriteTo(&v4); err != nil {
		f.Fatal(err)
	}
	v3, err := os.ReadFile("testdata/v3_small.ffsc")
	if err != nil {
		f.Fatal(err)
	}
	file := v4.Bytes()
	f.Add(file)
	f.Add(v3)
	for n := 0; n < testutil.HeaderLen(file); n++ {
		f.Add(file[:n])
	}
	for n := int(binary.LittleEndian.Uint64(file[len(file)-12:])); n < len(file); n++ {
		f.Add(file[:n])
	}
	f.Fuzz(func(t *testing.T, file []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ff")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		pool := blockstore.NewPool(64 << 10)
		// One re-read per failed block, without the backoff's sleep.
		pool.SetRetryPolicy(blockstore.RetryPolicy{MaxAttempts: 2, Sleep: func(time.Duration) {}})
		tab, err := OpenStore(path, pool)
		if err != nil {
			return
		}
		defer func() {
			if err := tab.Close(); err != nil {
				t.Error(err)
			}
		}()
		ref, err := ReadTable(bytes.NewReader(file))
		if err != nil {
			ref = nil
		}
		nb := tab.Layout().NumBlocks()
		checkPin := func(name string, b int, err error) bool {
			var be *blockstore.BlockError
			if err != nil && (!errors.As(err, &be) || be.Block != b) {
				t.Fatalf("column %s block %d: %v is not a *blockstore.BlockError naming the block", name, b, err)
			}
			return err == nil
		}
		for _, c := range tab.Schema().Columns() {
			var held *blockstore.Frame
			switch c.Kind {
			case Float:
				fb, err := tab.FloatBlocks(c.Name)
				if err != nil {
					t.Fatal(err)
				}
				var rb FloatBlocks
				if ref != nil {
					if rb, err = ref.FloatBlocks(c.Name); err != nil {
						t.Fatal(err)
					}
				}
				for b := 0; b < nb; b++ {
					held, err = fb.Pin(b, held)
					if !checkPin(c.Name, b, err) || ref == nil {
						continue
					}
					got, want := fb.Rows(b, b+1, held), rb.Rows(b, b+1, nil)
					if len(got) != len(want) {
						t.Fatalf("column %s block %d: %d rows out of core, %d resident", c.Name, b, len(got), len(want))
					}
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("column %s block %d row %d: %v out of core, %v resident", c.Name, b, i, got[i], want[i])
						}
					}
				}
				fb.Unpin(held)
			case Categorical:
				cb, err := tab.CatBlocks(c.Name)
				if err != nil {
					t.Fatal(err)
				}
				var rb CatBlocks
				if ref != nil {
					if rb, err = ref.CatBlocks(c.Name); err != nil {
						t.Fatal(err)
					}
				}
				for b := 0; b < nb; b++ {
					held, err = cb.Pin(b, held)
					if !checkPin(c.Name, b, err) || ref == nil {
						continue
					}
					if got, want := cb.Rows(b, b+1, held), rb.Rows(b, b+1, nil); !slices.Equal(got, want) {
						t.Fatalf("column %s block %d: codes %v out of core, %v resident", c.Name, b, got, want)
					}
				}
				cb.Unpin(held)
			}
		}
		if n := pool.Stats().PinnedFrames; n != 0 {
			t.Fatalf("%d extents still pinned after every frame was unpinned", n)
		}
	})
}
