package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// buildFixture generates a synthetic dataset plus its Meta: one
// smooth float column, one noisy float column, and one categorical
// column with correct zone maps and block bitmap index words.
func buildFixture(rng *rand.Rand, rows, blockSize, dictLen int) (*Meta, [][]float64, [][]uint32) {
	smooth := make([]float64, rows)
	noisy := make([]float64, rows)
	codes := make([]uint32, rows)
	v := 50.0
	for i := 0; i < rows; i++ {
		v += rng.Float64() - 0.5
		smooth[i] = v
		noisy[i] = math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | (1023 << 52)) // finite
		codes[i] = rng.Uint32N(uint32(dictLen))
	}
	meta := &Meta{BlockSize: blockSize, Rows: rows}
	nb := meta.NumBlocks()
	zone := func(vals []float64) (mins, maxs []float64) {
		mins = make([]float64, nb)
		maxs = make([]float64, nb)
		for b := 0; b < nb; b++ {
			start := b * blockSize
			end := min(start+blockSize, rows)
			mins[b], maxs[b] = vals[start], vals[start]
			for _, x := range vals[start+1 : end] {
				mins[b] = math.Min(mins[b], x)
				maxs[b] = math.Max(maxs[b], x)
			}
		}
		return
	}
	sm, sx := zone(smooth)
	nm, nx := zone(noisy)
	dict := make([]string, dictLen)
	words := make([][]uint64, dictLen)
	nw := (nb + 63) / 64
	for c := range dict {
		dict[c] = string(rune('a' + c))
		words[c] = make([]uint64, nw)
	}
	for i, c := range codes {
		b := i / blockSize
		words[c][b/64] |= 1 << (b % 64)
	}
	meta.Cols = []ColumnMeta{
		{Name: "smooth", Kind: KindFloat, BoundsLo: slices.Min(sm), BoundsHi: slices.Max(sx), ZoneMin: sm, ZoneMax: sx},
		{Name: "cat", Kind: KindCat, Dict: dict, IndexWords: words},
		{Name: "noisy", Kind: KindFloat, BoundsLo: slices.Min(nm), BoundsHi: slices.Max(nx), ZoneMin: nm, ZoneMax: nx},
	}
	return meta, [][]float64{smooth, nil, noisy}, [][]uint32{nil, codes, nil}
}

func writeFixture(t *testing.T, meta *Meta, floats [][]float64, codes [][]uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, meta)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for ci, c := range meta.Cols {
		if c.Kind == KindFloat {
			err = w.WriteFloatColumn(ci, floats[ci])
		} else {
			err = w.WriteCatColumn(ci, codes[ci])
		}
		if err != nil {
			t.Fatalf("write column %d: %v", ci, err)
		}
	}
	n, err := w.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if int(n) != buf.Len() {
		t.Fatalf("Finish reported %d bytes, buffer has %d", n, buf.Len())
	}
	return buf.Bytes()
}

// TestReadSequentialExactCapacity: what the resident reader returns
// holds its declared size and nothing more. With the read chunk and the
// column preallocation lowered far below the table, every zone array,
// index row and column grows several times on the way — each growth is
// a doubling that stops at the declared size, so cap == len at the end
// (append's own growth would leave up to a quarter spare, retained for
// the table's lifetime), and the values still read back exactly.
func TestReadSequentialExactCapacity(t *testing.T) {
	defer func(c, p int) { readChunk, preallocRows = c, p }(readChunk, preallocRows)
	readChunk, preallocRows = 4, 50
	const rows = 1000
	meta, floats, codes := buildFixture(rand.New(rand.NewPCG(5, 5)), rows, 1, 3) // 1000 blocks, 16 index words
	data := writeFixture(t, meta, floats, codes)
	m, gotF, gotC, err := ReadSequential(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	exact := func(what string, length, capacity, want int) {
		t.Helper()
		if length != want || capacity != want {
			t.Errorf("%s: len %d cap %d, want both %d", what, length, capacity, want)
		}
	}
	for ci, c := range m.Cols {
		if c.Kind == KindFloat {
			exact(c.Name+" values", len(gotF[ci]), cap(gotF[ci]), rows)
			exact(c.Name+" zone min", len(c.ZoneMin), cap(c.ZoneMin), rows)
			exact(c.Name+" zone max", len(c.ZoneMax), cap(c.ZoneMax), rows)
			for r := range floats[ci] {
				if math.Float64bits(gotF[ci][r]) != math.Float64bits(floats[ci][r]) {
					t.Fatalf("%s row %d differs", c.Name, r)
				}
			}
			continue
		}
		exact(c.Name+" codes", len(gotC[ci]), cap(gotC[ci]), rows)
		for d, words := range c.IndexWords {
			exact(fmt.Sprintf("%s index row %d", c.Name, d), len(words), cap(words), (rows+63)/64)
			if !slices.Equal(words, meta.Cols[ci].IndexWords[d]) {
				t.Fatalf("%s index row %d differs", c.Name, d)
			}
		}
		if !slices.Equal(gotC[ci], codes[ci]) {
			t.Fatalf("%s codes differ", c.Name)
		}
	}
}

// TestWriteReadSequential round-trips a file through the streaming
// reader, checking meta and data bit-exactly, including a partial
// trailing block.
func TestWriteReadSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, rows := range []int{25, 26, 1000, 1013} {
		meta, floats, codes := buildFixture(rng, rows, 25, 6)
		data := writeFixture(t, meta, floats, codes)

		got, gf, gc, err := ReadSequential(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("rows=%d: ReadSequential: %v", rows, err)
		}
		if got.Rows != rows || got.BlockSize != 25 || len(got.Cols) != 3 {
			t.Fatalf("rows=%d: meta = %+v", rows, got)
		}
		for ci, c := range got.Cols {
			want := meta.Cols[ci]
			if c.Name != want.Name || c.Kind != want.Kind {
				t.Fatalf("col %d: %+v", ci, c)
			}
			if c.Kind == KindFloat {
				if len(gf[ci]) != rows {
					t.Fatalf("col %d: %d floats", ci, len(gf[ci]))
				}
				for i := range gf[ci] {
					if math.Float64bits(gf[ci][i]) != math.Float64bits(floats[ci][i]) {
						t.Fatalf("col %d row %d: %v != %v", ci, i, gf[ci][i], floats[ci][i])
					}
				}
				for b := range c.ZoneMin {
					if c.ZoneMin[b] != want.ZoneMin[b] || c.ZoneMax[b] != want.ZoneMax[b] {
						t.Fatalf("col %d zone %d mismatch", ci, b)
					}
				}
			} else {
				if len(gc[ci]) != rows {
					t.Fatalf("col %d: %d codes", ci, len(gc[ci]))
				}
				for i := range gc[ci] {
					if gc[ci][i] != codes[ci][i] {
						t.Fatalf("col %d row %d: %d != %d", ci, i, gc[ci][i], codes[ci][i])
					}
				}
				for d := range c.IndexWords {
					if c.Dict[d] != want.Dict[d] {
						t.Fatalf("col %d dict %d mismatch", ci, d)
					}
					for wi := range c.IndexWords[d] {
						if c.IndexWords[d][wi] != want.IndexWords[d][wi] {
							t.Fatalf("col %d index %d word %d mismatch", ci, d, wi)
						}
					}
				}
			}
		}
	}
}

func writeFixtureFile(t *testing.T, rows, blockSize, dictLen int, seed uint64) (string, *Meta, [][]float64, [][]uint32) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed+1))
	meta, floats, codes := buildFixture(rng, rows, blockSize, dictLen)
	data := writeFixture(t, meta, floats, codes)
	path := filepath.Join(t.TempDir(), "fixture.ffs")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, meta, floats, codes
}

// TestStoreRandomAccess opens a written file and reads blocks in random
// order, checking bit-exact decode.
func TestStoreRandomAccess(t *testing.T) {
	path, meta, floats, codes := writeFixtureFile(t, 1013, 25, 6, 42)
	s, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rng := rand.New(rand.NewPCG(9, 10))
	nb := meta.NumBlocks()
	var fdst []float64
	var cdst []uint32
	var scratch []byte
	for trial := 0; trial < 200; trial++ {
		ci := int(rng.Uint32N(uint32(len(meta.Cols))))
		b := int(rng.Uint32N(uint32(nb)))
		start := b * meta.BlockSize
		n := meta.BlockRows(b)
		if meta.Cols[ci].Kind == KindFloat {
			fdst, scratch, err = s.ReadFloatBlock(ci, b, fdst, scratch)
			if err != nil {
				t.Fatalf("ReadFloatBlock(%d,%d): %v", ci, b, err)
			}
			for i := 0; i < n; i++ {
				if math.Float64bits(fdst[i]) != math.Float64bits(floats[ci][start+i]) {
					t.Fatalf("col %d block %d row %d mismatch", ci, b, i)
				}
			}
		} else {
			cdst, scratch, err = s.ReadCatBlock(ci, b, cdst, scratch)
			if err != nil {
				t.Fatalf("ReadCatBlock(%d,%d): %v", ci, b, err)
			}
			for i := 0; i < n; i++ {
				if cdst[i] != codes[ci][start+i] {
					t.Fatalf("col %d block %d row %d mismatch", ci, b, i)
				}
			}
		}
	}
	if s.Reads() != 200 {
		t.Errorf("Reads = %d, want 200", s.Reads())
	}
	if s.BytesRead() <= 0 {
		t.Errorf("BytesRead = %d", s.BytesRead())
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestOpenRejectsOldAndCorrupt pins the error paths: a v2 or v3 file
// is an unsupported version, and a truncated footer must not open.
func TestOpenRejectsOldAndCorrupt(t *testing.T) {
	dir := t.TempDir()

	for _, version := range []byte{2, 3} {
		old := filepath.Join(dir, "old.ffs")
		var buf bytes.Buffer
		buf.WriteString(Magic)
		buf.Write([]byte{version, 0, 0, 0})
		buf.Write(make([]byte, 64))
		if err := os.WriteFile(old, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(old, OpenOptions{}); !errors.Is(err, ErrUnsupportedVersion) {
			t.Errorf("Open of a v%d file: %v, want ErrUnsupportedVersion", version, err)
		}
	}

	path, _, _, _ := writeFixtureFile(t, 100, 25, 4, 77)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.ffs")
	if err := os.WriteFile(trunc, data[:len(data)-6], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(trunc, OpenOptions{}); err == nil {
		t.Error("truncated file opened without error")
	}
}

// TestBlockSizeCap: a block of maxBlockSize rows writes, reads back
// sequentially and through Open; one row more is refused with
// ErrBlockSize by the writer and by a reader handed a crafted header.
func TestBlockSizeCap(t *testing.T) {
	meta, floats, codes := buildFixture(rand.New(rand.NewPCG(13, 14)), maxBlockSize, maxBlockSize, 4)
	data := writeFixture(t, meta, floats, codes)
	_, gotF, gotC, err := ReadSequential(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadSequential at the cap: %v", err)
	}
	if !slices.Equal(gotF[0], floats[0]) || !slices.Equal(gotC[1], codes[1]) {
		t.Error("ReadSequential at the cap: values differ")
	}
	path := filepath.Join(t.TempDir(), "cap.ffs")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatalf("Open at the cap: %v", err)
	}
	defer s.Close()
	if got, _, err := s.ReadFloatBlock(2, 0, nil, nil); err != nil || !slices.Equal(got, floats[2]) {
		t.Errorf("ReadFloatBlock at the cap: %v, values equal: %v", err, slices.Equal(got, floats[2]))
	}

	if want := fmt.Sprintf("cap of %d rows", maxBlockSize); !strings.Contains(ErrBlockSize.Error(), want) {
		t.Errorf("ErrBlockSize says %q, want it to name the %s", ErrBlockSize, want)
	}
	meta.BlockSize = maxBlockSize + 1
	if _, err := NewWriter(&bytes.Buffer{}, meta); !errors.Is(err, ErrBlockSize) {
		t.Errorf("NewWriter with %d-row blocks: %v, want ErrBlockSize", meta.BlockSize, err)
	}
	for _, blockSize := range []uint32{maxBlockSize, maxBlockSize + 1} {
		h := craftedHeader(blockSize, maxBlockSize, 1, KindFloat, make([]byte, 32)...) // bounds, zone min, zone max
		h = binary.LittleEndian.AppendUint32(h, crc32.Checksum(h[8:], castagnoli))
		_, err := readMeta(bytes.NewReader(h))
		if refused := errors.Is(err, ErrBlockSize); refused != (blockSize > maxBlockSize) || (err != nil && !refused) {
			t.Errorf("header declaring %d-row blocks: %v", blockSize, err)
		}
	}
}

// TestWriterOrderEnforced pins the schema-order contract of the writer.
func TestWriterOrderEnforced(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	meta, floats, _ := buildFixture(rng, 100, 25, 4)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFloatColumn(2, floats[2]); err == nil {
		t.Error("out-of-order column write accepted")
	}
	if err := w.WriteCatColumn(0, make([]uint32, 100)); err == nil {
		t.Error("kind-mismatched column write accepted")
	}
	if _, err := w.Finish(); err == nil {
		t.Error("Finish with missing columns accepted")
	}
}
