package blockstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Format v4 (little-endian). The header carries everything query
// compilation needs — schema, catalog bounds, zone maps, dictionaries
// and block bitmap indexes — so predicate pruning and active-scan
// skipping never read a data segment. Data segments follow
// column-major, each independently addressable and compressed; the
// footer is the segment directory enabling random block access:
//
//	magic "FFSC" | u32 version=4 | u32 blockSize | u64 rows | u32 numCols
//	per column: u8 kind | u16 nameLen | name
//	  Float (kind 0): f64 boundsLo | f64 boundsHi
//	                  | nb × f64 zoneMin | nb × f64 zoneMax
//	  Cat   (kind 1): u32 dictLen | dict entries (u16 len | bytes)
//	                  | per code: ceil(nb/64) × u64 index bitset words
//	u32 headerCRC  (CRC32C of the bytes after magic+version)
//	per column, per block: u32 segLen | segment (see encode.go) | u32 segCRC
//	footer: per column: nb × u64 offsets | nb × u32 lengths
//	u32 footerCRC | u64 footerOffset | magic "FF4E"
//
// All checksums are CRC32C (Castagnoli), so every byte a reader decodes
// has been verified. v4 is the one format read and written: any other
// version — v3, the same layout without checksums, and the monolithic
// v1 and v2 before it — is refused with ErrUnsupportedVersion.
// Segments are self-describing and written in a fixed order, so the
// whole file also reads sequentially without the footer — that is the
// resident ReadTable load path; the footer serves out-of-core opens.

const (
	// Magic is the leading file magic shared by every scramble format
	// version; Version is the one format read and written.
	Magic   = "FFSC"
	Version = 4
	// footerMagic trails the file, after the footer offset.
	footerMagic = "FF4E"
	// segPad is the length of what trails a segment's payload on disk:
	// its CRC word.
	segPad = 4

	// KindFloat and KindCat are the column kind bytes (matching
	// table.Float and table.Categorical).
	KindFloat = 0
	KindCat   = 1

	// Hard caps on header-declared sizes, enforced before any
	// allocation sized by them: a bit-flipped or truncated header must
	// yield a clean error, not a multi-gigabyte make() or a panic. A
	// constant block is nine bytes that decode to maxBlockSize values
	// (512 KiB), whatever the file's size; the paper's blocks have 25.
	maxBlockSize = 1 << 16
	maxRows      = 1 << 42
	maxCols      = 1 << 16
	maxDictLen   = 1 << 22
)

var (
	// readChunk is how many 8-byte values of an array or segment sized by
	// a header field are read at a time: what a reader allocates follows
	// the bytes that have arrived, not the count declared (grow), so a
	// crafted or damaged count costs one chunk before the input runs dry.
	readChunk = 8192
	// preallocRows caps the capacity a resident column gets when its
	// first block has decoded (32 MiB of float64); a longer one doubles.
	preallocRows = 1 << 22
)

// ErrUnsupportedVersion is wrapped by the error every reader of table
// files returns for a format version this build does not read.
var ErrUnsupportedVersion = errors.New("unsupported format version")

// ErrBlockSize is wrapped by the error NewWriter returns for a block size
// above maxBlockSize, and a reader for a header declaring one.
var ErrBlockSize = errors.New("block size above the cap of 65536 rows")

// readVersion consumes the magic and version fields that lead every
// table file and fails unless the version is the one this build reads.
func readVersion(r io.Reader) error {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return fmt.Errorf("blockstore: reading magic and version: %w", err)
	}
	if string(head[:4]) != Magic {
		return fmt.Errorf("blockstore: bad magic %q", head[:4])
	}
	if version := binary.LittleEndian.Uint32(head[4:]); version != Version {
		return fmt.Errorf("blockstore: %w %d (this build reads v%d only): regenerate the file with `ffgen -table` or reload the CSV",
			ErrUnsupportedVersion, version, Version)
	}
	return nil
}

// castagnoli is the CRC32C table shared by every checksum site.
// crc32.Checksum against a prebuilt table is allocation-free, which
// keeps per-round segment verification out of the allocation budget.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxSegLen bounds a segment's on-disk length for a block of n rows:
// the widest encoding is bounded by ~10 bytes per value (uvarint of a
// 64-bit delta) plus a small header. Anything larger is corruption.
func maxSegLen(n int) int { return 16 + 10*n }

// decodeBlock is the one rule for a valid block, which every reader
// applies: raw, segment (ci, b) as it sits on disk — its payload, then
// the payload's CRC32C — matches its checksum and decodes to the
// block's rows, each categorical code inside the column's dictionary.
// The rows land in fs or cs, whichever the column's kind fills (reusing
// its backing array); the other is returned as passed. A failure is an
// ErrChecksum or ErrDecode *BlockError naming the block, unlabelled.
func (m *Meta) decodeBlock(ci, b int, raw []byte, fs []float64, cs []uint32) ([]float64, []uint32, error) {
	seg := raw[:len(raw)-segPad]
	if stored, got := binary.LittleEndian.Uint32(raw[len(seg):]), crc32.Checksum(seg, castagnoli); got != stored {
		return fs, cs, &BlockError{Col: ci, Block: b, Kind: ErrChecksum, Err: fmt.Errorf("stored %08x, computed %08x", stored, got)}
	}
	var err error
	if c := &m.Cols[ci]; c.Kind == KindFloat {
		fs, err = DecodeFloatBlock(seg, fs, m.BlockRows(b))
	} else {
		cs, err = decodeCatBlock(seg, cs, m.BlockRows(b), uint64(len(c.Dict)))
	}
	if err != nil {
		return fs, cs, &BlockError{Col: ci, Block: b, Kind: ErrDecode, Err: err}
	}
	return fs, cs, nil
}

// ColumnMeta is the header metadata of one column.
type ColumnMeta struct {
	Name string
	Kind uint8

	// Float columns: catalog bounds and the per-block zone map.
	BoundsLo, BoundsHi float64
	ZoneMin, ZoneMax   []float64

	// Categorical columns: the dictionary and the block bitmap index
	// (IndexWords[code] is the bitset words of blocks containing code).
	Dict       []string
	IndexWords [][]uint64
}

// Meta is the header of a table file.
type Meta struct {
	BlockSize int
	Rows      int
	Cols      []ColumnMeta
}

// NumBlocks returns the block count (the last block possibly partial).
func (m *Meta) NumBlocks() int {
	if m.Rows == 0 {
		return 0
	}
	return (m.Rows + m.BlockSize - 1) / m.BlockSize
}

// BlockRows returns the number of rows in block b.
func (m *Meta) BlockRows(b int) int {
	start := b * m.BlockSize
	end := start + m.BlockSize
	if end > m.Rows {
		end = m.Rows
	}
	return end - start
}

// Writer emits a v4 file to a streaming destination: header at
// construction, then every column's blocks in schema order, then the
// footer. The destination needs no seeking — offsets are tracked as
// bytes are written.
type Writer struct {
	w       *bufio.Writer
	off     int64
	meta    *Meta
	nextCol int
	offs    [][]int64
	lens    [][]int32
	scratch []byte
	err     error

	// crc accumulates CRC32C over written bytes while crcOn (the header
	// and footer-directory checksum regions).
	crc   uint32
	crcOn bool
}

// NewWriter writes the header and returns a Writer expecting each
// column's data in schema order.
func NewWriter(dst io.Writer, meta *Meta) (*Writer, error) {
	w := &Writer{w: bufio.NewWriterSize(dst, 1<<20), meta: meta}
	if meta.BlockSize <= 0 || meta.Rows <= 0 {
		return nil, fmt.Errorf("blockstore: bad meta (blockSize=%d rows=%d)", meta.BlockSize, meta.Rows)
	}
	if meta.BlockSize > maxBlockSize {
		return nil, fmt.Errorf("blockstore: %w: %d", ErrBlockSize, meta.BlockSize)
	}
	nb := meta.NumBlocks()
	w.offs = make([][]int64, len(meta.Cols))
	w.lens = make([][]int32, len(meta.Cols))
	for i := range meta.Cols {
		w.offs[i] = make([]int64, nb)
		w.lens[i] = make([]int32, nb)
	}

	w.writeBytes([]byte(Magic))
	w.writeU32(Version)
	// The header checksum covers everything after magic+version, which
	// the reader re-accumulates through readMeta.
	w.crc, w.crcOn = 0, true
	w.writeU32(uint32(meta.BlockSize))
	w.writeU64(uint64(meta.Rows))
	w.writeU32(uint32(len(meta.Cols)))
	for _, c := range meta.Cols {
		w.writeBytes([]byte{c.Kind})
		w.writeString16(c.Name)
		switch c.Kind {
		case KindFloat:
			w.writeF64(c.BoundsLo)
			w.writeF64(c.BoundsHi)
			if len(c.ZoneMin) != nb || len(c.ZoneMax) != nb {
				return nil, fmt.Errorf("blockstore: column %q zone map has %d/%d blocks, want %d", c.Name, len(c.ZoneMin), len(c.ZoneMax), nb)
			}
			w.writeF64s(c.ZoneMin)
			w.writeF64s(c.ZoneMax)
		case KindCat:
			w.writeU32(uint32(len(c.Dict)))
			for _, s := range c.Dict {
				w.writeString16(s)
			}
			nw := (nb + 63) / 64
			if len(c.IndexWords) != len(c.Dict) {
				return nil, fmt.Errorf("blockstore: column %q index has %d codes, want %d", c.Name, len(c.IndexWords), len(c.Dict))
			}
			for _, words := range c.IndexWords {
				if len(words) != nw {
					return nil, fmt.Errorf("blockstore: column %q index words %d, want %d", c.Name, len(words), nw)
				}
				w.writeU64s(words)
			}
		default:
			return nil, fmt.Errorf("blockstore: unknown column kind %d", c.Kind)
		}
	}
	w.crcOn = false
	w.writeU32(w.crc)
	return w, w.err
}

// WriteFloatColumn writes every block segment of float column ci,
// which must be the next schema column.
func (w *Writer) WriteFloatColumn(ci int, values []float64) error {
	if err := w.checkCol(ci, KindFloat, len(values)); err != nil {
		return err
	}
	nb := w.meta.NumBlocks()
	for b := 0; b < nb; b++ {
		start := b * w.meta.BlockSize
		end := min(start+w.meta.BlockSize, len(values))
		w.scratch = AppendFloatBlock(w.scratch[:0], values[start:end])
		w.writeSegment(ci, b)
	}
	w.nextCol++
	return w.err
}

// WriteCatColumn writes every block segment of categorical column ci,
// which must be the next schema column.
func (w *Writer) WriteCatColumn(ci int, codes []uint32) error {
	if err := w.checkCol(ci, KindCat, len(codes)); err != nil {
		return err
	}
	nb := w.meta.NumBlocks()
	for b := 0; b < nb; b++ {
		start := b * w.meta.BlockSize
		end := min(start+w.meta.BlockSize, len(codes))
		w.scratch = AppendCatBlock(w.scratch[:0], codes[start:end])
		w.writeSegment(ci, b)
	}
	w.nextCol++
	return w.err
}

// Finish writes the footer and flushes. The Writer is spent afterwards.
func (w *Writer) Finish() (int64, error) {
	if w.err != nil {
		return w.off, w.err
	}
	if w.nextCol != len(w.meta.Cols) {
		return w.off, fmt.Errorf("blockstore: Finish after %d of %d columns", w.nextCol, len(w.meta.Cols))
	}
	footerOff := w.off
	w.crc, w.crcOn = 0, true
	for ci := range w.meta.Cols {
		for _, o := range w.offs[ci] {
			w.writeU64(uint64(o))
		}
		for _, l := range w.lens[ci] {
			w.writeU32(uint32(l))
		}
	}
	w.crcOn = false
	w.writeU32(w.crc)
	w.writeU64(uint64(footerOff))
	w.writeBytes([]byte(footerMagic))
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return w.off, w.err
}

func (w *Writer) checkCol(ci int, kind uint8, n int) error {
	if w.err != nil {
		return w.err
	}
	if ci != w.nextCol {
		return fmt.Errorf("blockstore: column %d written out of order (want %d)", ci, w.nextCol)
	}
	if ci >= len(w.meta.Cols) || w.meta.Cols[ci].Kind != kind {
		return fmt.Errorf("blockstore: column %d kind mismatch", ci)
	}
	if n != w.meta.Rows {
		return fmt.Errorf("blockstore: column %d has %d rows, want %d", ci, n, w.meta.Rows)
	}
	return nil
}

// writeSegment frames w.scratch as the next segment of (ci, b). The
// directory offset points at the payload (not the length prefix), and
// the trailing CRC is excluded from the recorded length.
func (w *Writer) writeSegment(ci, b int) {
	w.writeU32(uint32(len(w.scratch)))
	w.offs[ci][b] = w.off
	w.lens[ci][b] = int32(len(w.scratch))
	w.writeBytes(w.scratch)
	w.writeU32(crc32.Checksum(w.scratch, castagnoli))
}

func (w *Writer) writeBytes(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(p)
	w.off += int64(n)
	if w.crcOn {
		w.crc = crc32.Update(w.crc, castagnoli, p[:n])
	}
	w.err = err
}

func (w *Writer) writeU32(v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	w.writeBytes(buf[:])
}

func (w *Writer) writeU64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.writeBytes(buf[:])
}

func (w *Writer) writeF64(v float64) { w.writeU64(math.Float64bits(v)) }

func (w *Writer) writeF64s(vals []float64) {
	for _, v := range vals {
		if w.err != nil {
			return
		}
		w.writeF64(v)
	}
}

func (w *Writer) writeU64s(vals []uint64) {
	for _, v := range vals {
		if w.err != nil {
			return
		}
		w.writeU64(v)
	}
}

func (w *Writer) writeString16(s string) {
	if len(s) > math.MaxUint16 {
		w.err = fmt.Errorf("blockstore: string too long (%d bytes)", len(s))
		return
	}
	var buf [2]byte
	binary.LittleEndian.PutUint16(buf[:], uint16(len(s)))
	w.writeBytes(buf[:])
	w.writeBytes([]byte(s))
}

// crcReader accumulates CRC32C over everything read through it, so a
// header parse can be verified against the stored checksum without
// buffering the header.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	}
	return n, err
}

// readMeta parses a file from its first byte through the header,
// consuming the stored header checksum and verifying it.
func readMeta(r io.Reader) (*Meta, error) {
	if err := readVersion(r); err != nil {
		return nil, err
	}
	cr := &crcReader{r: r}
	m, err := readMetaBody(cr)
	if err != nil {
		return nil, err
	}
	var stored uint32
	if err := binary.Read(r, binary.LittleEndian, &stored); err != nil {
		return nil, fmt.Errorf("blockstore: header checksum: %w", err)
	}
	if stored != cr.crc {
		return nil, fmt.Errorf("blockstore: header checksum mismatch (stored %08x, computed %08x)", stored, cr.crc)
	}
	// Every range-based bound is valid only for values inside the
	// catalog range, and every value lies inside its block's zone
	// (checkPlanning): so every zone must lie inside the catalog.
	// Written so that a NaN bound or zone fails too.
	for _, c := range m.Cols {
		for b := range c.ZoneMin {
			if !(c.BoundsLo <= c.ZoneMin[b] && c.ZoneMax[b] <= c.BoundsHi) {
				return nil, fmt.Errorf("blockstore: column %q block %d: zone [%v, %v] outside the catalog bounds [%v, %v]",
					c.Name, b, c.ZoneMin[b], c.ZoneMax[b], c.BoundsLo, c.BoundsHi)
			}
		}
	}
	return m, nil
}

// readMetaBody parses the header fields. Nothing is allocated by a
// count the header declares: columns, dictionary entries and the zone
// and index arrays all grow as their bytes arrive (readChunk), so the
// parse of a header that lies fails at the end of the input having
// allocated a small multiple of it.
func readMetaBody(r io.Reader) (*Meta, error) {
	var blockSize, numCols uint32
	var rows uint64
	if err := binary.Read(r, binary.LittleEndian, &blockSize); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &rows); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &numCols); err != nil {
		return nil, err
	}
	if blockSize == 0 || rows == 0 {
		return nil, fmt.Errorf("blockstore: corrupt header (blockSize=%d rows=%d)", blockSize, rows)
	}
	if blockSize > maxBlockSize {
		return nil, fmt.Errorf("blockstore: corrupt header: %w: %d", ErrBlockSize, blockSize)
	}
	if rows > maxRows || numCols > maxCols {
		return nil, fmt.Errorf("blockstore: implausible header (blockSize=%d rows=%d cols=%d)", blockSize, rows, numCols)
	}
	m := &Meta{BlockSize: int(blockSize), Rows: int(rows)}
	nb := m.NumBlocks()
	for i := 0; i < int(numCols); i++ {
		var c ColumnMeta
		var kind [1]byte
		if _, err := io.ReadFull(r, kind[:]); err != nil {
			return nil, err
		}
		c.Kind = kind[0]
		name, err := readString16(r)
		if err != nil {
			return nil, err
		}
		c.Name = name
		switch c.Kind {
		case KindFloat:
			var lo, hi uint64
			if err := binary.Read(r, binary.LittleEndian, &lo); err != nil {
				return nil, err
			}
			if err := binary.Read(r, binary.LittleEndian, &hi); err != nil {
				return nil, err
			}
			c.BoundsLo = math.Float64frombits(lo)
			c.BoundsHi = math.Float64frombits(hi)
			if c.ZoneMin, err = readWords[float64](r, nb); err != nil {
				return nil, err
			}
			if c.ZoneMax, err = readWords[float64](r, nb); err != nil {
				return nil, err
			}
		case KindCat:
			var dictLen uint32
			if err := binary.Read(r, binary.LittleEndian, &dictLen); err != nil {
				return nil, err
			}
			if dictLen > maxDictLen {
				return nil, fmt.Errorf("blockstore: implausible dictionary size %d", dictLen)
			}
			for d := 0; d < int(dictLen); d++ {
				s, err := readString16(r)
				if err != nil {
					return nil, err
				}
				c.Dict = append(c.Dict, s)
			}
			nw := (nb + 63) / 64
			for d := 0; d < int(dictLen); d++ {
				words, err := readWords[uint64](r, nw)
				if err != nil {
					return nil, err
				}
				c.IndexWords = append(c.IndexWords, words)
			}
		default:
			return nil, fmt.Errorf("blockstore: unknown column kind %d", c.Kind)
		}
		m.Cols = append(m.Cols, c)
	}
	return m, nil
}

// ReadSequential decodes a whole stream, from its magic on, into fully
// resident column slices: floats[ci] for float columns, codes[ci] for
// categorical columns (the other slot is nil). Each block is checked
// and decoded (decodeBlock), then held to the header's block index or
// zone map (checkPlanning); the first block that fails is reported as
// a *BlockError naming it. The footer is consumed and validated. This
// is the resident ReadTable load path.
func ReadSequential(r io.Reader) (m *Meta, floats [][]float64, codes [][]uint32, err error) {
	m, err = readMeta(r)
	if err != nil {
		return nil, nil, nil, err
	}
	nb := m.NumBlocks()
	floats = make([][]float64, len(m.Cols))
	codes = make([][]uint32, len(m.Cols))
	var raw []byte
	var fblock []float64
	var cblock []uint32
	first := min(preallocRows, m.Rows) // a column's capacity once a block of it has decoded
	for ci, c := range m.Cols {
		for b := 0; b < nb; b++ {
			var segLen uint32
			if err := binary.Read(r, binary.LittleEndian, &segLen); err != nil {
				return nil, nil, nil, fmt.Errorf("blockstore: column %d block %d: %w", ci, b, err)
			}
			n := m.BlockRows(b)
			if int(segLen) > maxSegLen(n) {
				return nil, nil, nil, fmt.Errorf("blockstore: column %d block %d: implausible segment length %d", ci, b, segLen)
			}
			want := int(segLen) + segPad
			for raw = raw[:0]; len(raw) < want; {
				end := min(len(raw)+8*readChunk, want)
				raw = grow(raw, end, want)
				if _, err := io.ReadFull(r, raw[len(raw):end]); err != nil {
					return nil, nil, nil, fmt.Errorf("blockstore: column %d block %d: %w", ci, b, err)
				}
				raw = raw[:end]
			}
			if fblock, cblock, err = m.decodeBlock(ci, b, raw, fblock, cblock); err == nil {
				err = m.checkPlanning(ci, b, fblock, cblock)
			}
			if err != nil {
				return nil, nil, nil, err
			}
			if c.Kind == KindFloat {
				floats[ci] = append(grow(floats[ci], max(len(floats[ci])+n, first), m.Rows), fblock...)
			} else {
				codes[ci] = append(grow(codes[ci], max(len(codes[ci])+n, first), m.Rows), cblock...)
			}
		}
	}
	// Drain and validate the footer so the stream is left at EOF: the
	// directory, verified against its checksum, then the trailing
	// offset+magic.
	dcr := &crcReader{r: r}
	if _, err := io.CopyN(io.Discard, dcr, int64(len(m.Cols))*int64(nb)*12); err != nil {
		return nil, nil, nil, fmt.Errorf("blockstore: footer: %w", err)
	}
	var stored uint32
	if err := binary.Read(r, binary.LittleEndian, &stored); err != nil {
		return nil, nil, nil, fmt.Errorf("blockstore: footer checksum: %w", err)
	}
	if stored != dcr.crc {
		return nil, nil, nil, fmt.Errorf("blockstore: footer checksum mismatch (stored %08x, computed %08x)", stored, dcr.crc)
	}
	var tail [12]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, nil, nil, fmt.Errorf("blockstore: footer tail: %w", err)
	}
	if string(tail[8:]) != footerMagic {
		return nil, nil, nil, fmt.Errorf("blockstore: bad footer magic %q", tail[8:])
	}
	return m, floats, codes, nil
}

func readString16(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// grow returns s with capacity for need values: at least twice what it
// had, and never past limit, the size its header declares. So the last
// growth lands on exactly limit, all the copying stays under 2·limit, an
// honest count leaves no spare capacity behind, and a lying one fails at
// the end of the input holding less than twice what arrived plus a chunk.
func grow[T any](s []T, need, limit int) []T {
	if need <= cap(s) {
		return s
	}
	grown := make([]T, len(s), max(need, min(2*cap(s), limit)))
	copy(grown, s)
	return grown
}

// readWords reads n little-endian 8-byte values, a chunk at a time into
// a slice that grows as they arrive.
func readWords[T uint64 | float64](r io.Reader, n int) ([]T, error) {
	var out []T
	buf := make([]byte, 8*min(n, readChunk))
	for len(out) < n {
		done, k := len(out), min(n-len(out), readChunk)
		if _, err := io.ReadFull(r, buf[:8*k]); err != nil {
			return nil, err
		}
		out = grow(out, done+k, n)[:done+k]
		switch dst := any(out[done:]).(type) {
		case []uint64:
			for i := range dst {
				dst[i] = binary.LittleEndian.Uint64(buf[8*i:])
			}
		case []float64:
			for i := range dst {
				dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
			}
		}
	}
	return out, nil
}
