package blockstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"
)

// Store is an open table file ready for random block access: header
// and segment directory resident, data segments read on demand with
// pread — one block at a time (Read*Block), or an extent of consecutive
// blocks in one read (the Pool's unit). Every segment is CRC32C-verified
// before it decodes. A Store is safe for concurrent readers and is
// normally accessed through a Pool, which adds caching, pinning,
// eviction, and retry/quarantine of failing blocks.
type Store struct {
	f     *os.File
	meta  *Meta
	label string
	// extBlocks is ExtentBlocks(meta.BlockSize), the pool's unit.
	extBlocks int

	// dir is the segment directory: dir[ci].offs[b] / lens[b] locate
	// column ci's block b in the file.
	dir []colDir

	// bytesRead and reads count physical reads, of one segment or of a
	// whole extent.
	bytesRead atomic.Int64
	reads     atomic.Int64

	// Fault counters, reported per table via FaultStats. ioErrors and
	// checksumFailures are incremented here on every failed physical
	// read; retries and quarantined are incremented by the pool, which
	// owns that policy, so one snapshot carries the whole story.
	ioErrors         atomic.Int64
	checksumFailures atomic.Int64
	retries          atomic.Int64
	quarantined      atomic.Int64
	lastFaultNano    atomic.Int64

	// fault holds the injected FaultFunc (test seam); see SetFault.
	fault atomic.Value
}

type colDir struct {
	offs []int64
	lens []int32
	// ordered: the segments sit in the file in block order without
	// overlap, as every writer lays them out — what lets a run of them
	// be read as one extent. A crafted footer, its checksum valid, can
	// say otherwise.
	ordered bool
}

// OpenOptions configures Open. It has no fields left — pread is the one
// read backend — and stays only because the frozen bench/ package calls
// Open with it.
type OpenOptions struct{}

// Open opens a table file for random block access. A format version
// other than v4 is refused with ErrUnsupportedVersion.
func Open(path string, _ OpenOptions) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := newStore(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.label = path
	return s, nil
}

func newStore(f *os.File) (*Store, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()

	// Header: magic, version, then the shared meta parser, which
	// verifies the header checksum. The section reader ends with the
	// file, which is what bounds the parse of a header that declares
	// more blocks than the file could hold.
	br := bufio.NewReaderSize(io.NewSectionReader(f, 0, size), 1<<16)
	meta, err := readMeta(br)
	if err != nil {
		return nil, err
	}

	// Footer: the trailing 12 bytes locate the directory. Everything the
	// directory declares — its own extent, then every segment's offset
	// and length — is validated against the file size before any
	// allocation or slice is derived from it, so a truncated or
	// bit-flipped footer yields a clean error rather than a huge make()
	// or an out-of-range panic.
	var tail [12]byte
	if size < int64(len(tail)) {
		return nil, fmt.Errorf("blockstore: file too small (%d bytes)", size)
	}
	if _, err := f.ReadAt(tail[:], size-12); err != nil {
		return nil, err
	}
	if string(tail[8:]) != footerMagic {
		return nil, fmt.Errorf("blockstore: bad footer magic %q", tail[8:])
	}
	footerOff := int64(binary.LittleEndian.Uint64(tail[:8]))
	nb := meta.NumBlocks()
	dirLen := int64(len(meta.Cols)) * int64(nb) * 12
	// The directory is followed by its own 4-byte CRC.
	if footerOff < 0 || footerOff+dirLen+4 != size-12 {
		return nil, fmt.Errorf("blockstore: corrupt footer offset %d", footerOff)
	}
	var crcBuf [4]byte
	if _, err := f.ReadAt(crcBuf[:], footerOff+dirLen); err != nil {
		return nil, err
	}
	stored := binary.LittleEndian.Uint32(crcBuf[:])
	got, err := crcOfRange(f, footerOff, dirLen)
	if err != nil {
		return nil, err
	}
	if got != stored {
		return nil, fmt.Errorf("blockstore: footer checksum mismatch (stored %08x, computed %08x)", stored, got)
	}
	// A segment's trailing CRC is not counted in the directory length;
	// segment bounds must account for it.
	fr := bufio.NewReaderSize(io.NewSectionReader(f, footerOff, dirLen), 1<<16)
	dir := make([]colDir, len(meta.Cols))
	for ci := range dir {
		offs := make([]int64, nb)
		lens := make([]int32, nb)
		buf := make([]byte, 8*nb)
		if _, err := io.ReadFull(fr, buf); err != nil {
			return nil, err
		}
		for b := range offs {
			offs[b] = int64(binary.LittleEndian.Uint64(buf[8*b:]))
		}
		if _, err := io.ReadFull(fr, buf[:4*nb]); err != nil {
			return nil, err
		}
		for b := range lens {
			lens[b] = int32(binary.LittleEndian.Uint32(buf[4*b:]))
		}
		ordered, end := true, int64(0)
		for b := range offs {
			if lens[b] < 0 || int(lens[b]) > maxSegLen(meta.BlockRows(b)) {
				return nil, fmt.Errorf("blockstore: segment (%d,%d) has implausible length %d", ci, b, lens[b])
			}
			if offs[b] < 0 || offs[b]+int64(lens[b])+segPad > footerOff {
				return nil, fmt.Errorf("blockstore: segment (%d,%d) out of bounds", ci, b)
			}
			ordered = ordered && offs[b] >= end
			end = offs[b] + int64(lens[b]) + segPad
		}
		dir[ci] = colDir{offs: offs, lens: lens, ordered: ordered}
	}

	return &Store{f: f, meta: meta, dir: dir, extBlocks: ExtentBlocks(meta.BlockSize)}, nil
}

// extentRows is the row count an extent aims for.
const extentRows = 2048

// ExtentBlocks returns how many consecutive blocks of one column make
// an extent — the run the Pool reads, caches and pins as a unit — for a
// given block size: the largest power of two whose rows fit extentRows
// (64 blocks of 25 rows), and one block when a block alone is larger.
func ExtentBlocks(blockSize int) int {
	n := 1
	for 2*n*blockSize <= extentRows {
		n *= 2
	}
	return n
}

// ExtentBlocks returns the store's extent length in blocks. Extents are
// aligned: extent x of a column holds blocks [x·n, (x+1)·n), the last
// one possibly fewer.
func (s *Store) ExtentBlocks() int { return s.extBlocks }

// crcOfRange computes CRC32C over n bytes of f starting at off.
func crcOfRange(f *os.File, off, n int64) (uint32, error) {
	var crc uint32
	buf := make([]byte, 1<<16)
	for n > 0 {
		chunk := int64(len(buf))
		if chunk > n {
			chunk = n
		}
		if _, err := f.ReadAt(buf[:chunk], off); err != nil {
			return 0, err
		}
		crc = crc32.Update(crc, castagnoli, buf[:chunk])
		off += chunk
		n -= chunk
	}
	return crc, nil
}

// Meta returns the file header.
func (s *Store) Meta() *Meta { return s.meta }

// Label returns the store's human-readable identity, used in
// BlockError.Table. It defaults to the file path; Register overrides it
// with the registered table name via SetLabel.
func (s *Store) Label() string { return s.label }

// SetLabel sets the label reported in block errors and fault stats.
func (s *Store) SetLabel(l string) { s.label = l }

// SetFault installs (or, with nil, clears) a fault-injection hook
// consulted before every physical segment read. Test seam: production
// code never calls this. Safe to call concurrently with reads.
func (s *Store) SetFault(fn FaultFunc) { s.fault.Store(fn) }

// FaultStats is a snapshot of a store's fault counters.
type FaultStats struct {
	IOErrors          int64
	ChecksumFailures  int64
	Retries           int64
	QuarantinedBlocks int64
	// LastFaultUnixNano is the wall-clock time of the most recent fault,
	// 0 if none; the serving layer's circuit breaker ages on it.
	LastFaultUnixNano int64
}

// FaultStats returns a snapshot of the store's fault counters.
func (s *Store) FaultStats() FaultStats {
	return FaultStats{
		IOErrors:          s.ioErrors.Load(),
		ChecksumFailures:  s.checksumFailures.Load(),
		Retries:           s.retries.Load(),
		QuarantinedBlocks: s.quarantined.Load(),
		LastFaultUnixNano: s.lastFaultNano.Load(),
	}
}

// noteRetry and noteQuarantine record pool retry/quarantine decisions
// against the store they concern, so per-table stats are complete.
func (s *Store) noteRetry()      { s.retries.Add(1) }
func (s *Store) noteQuarantine() { s.quarantined.Add(1) }

func (s *Store) noteFault(now int64) { s.lastFaultNano.Store(now) }

// ioErr wraps err as an ErrIO BlockError and counts it.
func (s *Store) ioErr(ci, b int, err error) *BlockError {
	s.ioErrors.Add(1)
	return &BlockError{Table: s.label, Col: ci, Block: b, Kind: ErrIO, Err: err}
}

// Close closes the underlying file. The caller must ensure no pinned
// frames of this store remain in any pool.
func (s *Store) Close() error { return s.f.Close() }

// BytesRead and Reads report the cumulative bytes and count of physical
// reads (a read is one segment, or one extent of them).
func (s *Store) BytesRead() int64 { return s.bytesRead.Load() }
func (s *Store) Reads() int64     { return s.reads.Load() }

// injectFault consults the fault hook for a read of (ci, b) at retry
// attempt n; a hit fails the read as an ErrIO BlockError.
func (s *Store) injectFault(ci, b, attempt int) error {
	if v := s.fault.Load(); v != nil {
		if fn, _ := v.(FaultFunc); fn != nil {
			if ferr := fn(ci, b, attempt); ferr != nil {
				return s.ioErr(ci, b, ferr)
			}
		}
	}
	return nil
}

// readBlock reads segment (ci, b) on its own — the fault hook, then one
// pread into scratch — and decodes it into fs or cs (decode). attempt
// numbers the pool's retries of one logical load (0 for the first try)
// and is passed to the fault hook. The returned scratch slice must be
// passed back on the next call to reuse its backing array.
func (s *Store) readBlock(ci, b int, fs []float64, cs []uint32, scratch []byte, attempt int) ([]float64, []uint32, []byte, error) {
	if err := s.injectFault(ci, b, attempt); err != nil {
		return fs, cs, scratch, err
	}
	want := int(s.dir[ci].lens[b]) + segPad
	s.bytesRead.Add(int64(want))
	s.reads.Add(1)
	if cap(scratch) < want {
		scratch = make([]byte, want)
	}
	scratch = scratch[:want]
	if _, err := s.f.ReadAt(scratch, s.dir[ci].offs[b]); err != nil {
		return fs, cs, scratch, s.ioErr(ci, b, err)
	}
	fs, cs, err := s.decode(ci, b, scratch, fs, cs)
	return fs, cs, scratch, err
}

// decode is decodeBlock for segment (ci, b) of this store, raw holding
// its bytes from the payload on: a failure is labelled with the store
// and counted.
func (s *Store) decode(ci, b int, raw []byte, fs []float64, cs []uint32) ([]float64, []uint32, error) {
	fs, cs, err := s.meta.decodeBlock(ci, b, raw[:int(s.dir[ci].lens[b])+segPad], fs, cs)
	if be, ok := err.(*BlockError); ok {
		be.Table = s.label
		s.checksumFailures.Add(1)
	}
	return fs, cs, err
}

// extentSpan locates the bytes of blocks [b0, b1) of column ci: the
// file offset of the first payload and the length through the last
// segment's trailer. ok is false when the column's segments are not in
// order, or the run is implausibly long for its blocks (gaps a writer
// never leaves); such an extent is read block by block.
func (s *Store) extentSpan(ci, b0, b1 int) (off int64, n int, ok bool) {
	d := &s.dir[ci]
	off = d.offs[b0]
	end := d.offs[b1-1] + int64(d.lens[b1-1]) + segPad
	// Between two payloads sit one trailer and one length prefix.
	if !d.ordered || end-off > int64(b1-b0)*int64(maxSegLen(s.meta.BlockSize)+8) {
		return 0, 0, false
	}
	return off, int(end - off), true
}

// readExtent reads n bytes at off — an extentSpan — into buf (reusing
// its backing array) in one pread. No checksum is verified and no fault
// hook consulted here: both belong to a block's first use (Frame).
func (s *Store) readExtent(off int64, n int, buf []byte) ([]byte, error) {
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	s.bytesRead.Add(int64(n))
	s.reads.Add(1)
	_, err := s.f.ReadAt(buf, off)
	return buf, err
}

// ReadFloatBlock decodes block b of float column ci into dst (reusing
// its backing array). scratch is the caller's read buffer, returned
// possibly regrown.
func (s *Store) ReadFloatBlock(ci, b int, dst []float64, scratch []byte) ([]float64, []byte, error) {
	dst, _, scratch, err := s.readBlock(ci, b, dst, nil, scratch, 0)
	return dst, scratch, err
}

// ReadCatBlock decodes block b of categorical column ci into dst.
func (s *Store) ReadCatBlock(ci, b int, dst []uint32, scratch []byte) ([]uint32, []byte, error) {
	_, dst, scratch, err := s.readBlock(ci, b, nil, dst, scratch, 0)
	return dst, scratch, err
}
