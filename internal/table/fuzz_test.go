package table

import (
	"bytes"
	"math/rand/v2"
	"os"
	"strings"
	"testing"

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
