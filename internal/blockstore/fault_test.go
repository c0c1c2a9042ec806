package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// flipByte flips one byte of the file at off and returns a restore
// function.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptTruncatedOpen is the hardening regression: files truncated
// at every prefix length and files with damaged footers must fail Open
// with an error — never panic, never allocate absurdly — because the
// on-disk lengths and offsets are validated against the file size
// before any slicing.
func TestCorruptTruncatedOpen(t *testing.T) {
	path, _, _, _ := writeFixtureFile(t, 500, 25, 6, 77)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Truncations: a sweep of prefix lengths (dense near the ends,
	// strided through the middle).
	var cuts []int
	for n := 0; n < len(data) && n < 64; n++ {
		cuts = append(cuts, n)
	}
	for n := 64; n < len(data); n += 997 {
		cuts = append(cuts, n)
	}
	for n := len(data) - 32; n < len(data); n++ {
		if n > 0 {
			cuts = append(cuts, n)
		}
	}
	for _, n := range cuts {
		p := filepath.Join(dir, "trunc.ffs")
		if err := os.WriteFile(p, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(p, OpenOptions{}); err == nil {
			s.Close()
			t.Fatalf("Open accepted a file truncated to %d of %d bytes", n, len(data))
		}
	}

	// Bit flips across the whole file: Open either rejects the file
	// (header/footer damage) or opens it and every block read either
	// fails with a classified *BlockError or succeeds — no panics, no
	// unclassified errors.
	for off := int64(0); off < int64(len(data)); off += 211 {
		p := filepath.Join(dir, "flip.ffs")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		flipByte(t, p, off)
		s, err := Open(p, OpenOptions{})
		if err != nil {
			continue
		}
		var fdst []float64
		var cdst []uint32
		var scratch []byte
		for ci, c := range s.Meta().Cols {
			for b := 0; b < s.Meta().NumBlocks(); b++ {
				if c.Kind == KindFloat {
					fdst, scratch, err = s.ReadFloatBlock(ci, b, fdst, scratch)
				} else {
					cdst, scratch, err = s.ReadCatBlock(ci, b, cdst, scratch)
				}
				if err != nil {
					var be *BlockError
					if !errors.As(err, &be) {
						t.Fatalf("flip@%d col %d block %d: unclassified error %v", off, ci, b, err)
					}
					if be.Col != ci || be.Block != b {
						t.Fatalf("flip@%d: error names col %d block %d, read was col %d block %d",
							off, be.Col, be.Block, ci, b)
					}
				}
			}
		}
		s.Close()
	}
}

// craftedHeader is the head of a v4 file and nothing more: the given
// size fields, then one unnamed column's kind byte and whatever of its
// fields col carries.
func craftedHeader(blockSize uint32, rows uint64, cols uint32, kind byte, col ...byte) []byte {
	h := append([]byte(Magic), Version, 0, 0, 0)
	h = binary.LittleEndian.AppendUint32(h, blockSize)
	h = binary.LittleEndian.AppendUint64(h, rows)
	h = binary.LittleEndian.AppendUint32(h, cols)
	h = append(h, kind, 0, 0) // kind, nameLen
	return append(h, col...)
}

// TestCorruptHeaderBoundedAllocation: a header's size fields must not
// size an allocation before the bytes they promise arrive. Each crafted
// file of under 80 bytes declares far more than it carries, and the
// sequential reader and Open must both refuse it having allocated no
// more than a few read chunks. The first three lie about what the
// header itself holds (sized up front, the first is a 512 GiB make:
// "fatal error: runtime: out of memory", which no recover catches).
// The last two have a complete, self-consistent header and then end:
// one empty-dictionary column of 2^42 rows was a 16 MiB column before
// any segment, and one float block of maxBlockSize rows declaring the
// longest segment it may have was that whole buffer before any payload.
// Both carry a valid header checksum, so the reader gets past the
// header to the allocation under test.
func TestCorruptHeaderBoundedAllocation(t *testing.T) {
	const limit = 1 << 20 // against 64 KiB chunks
	le := binary.LittleEndian
	bounds := make([]byte, 16)
	withCRC := func(h []byte) []byte { return le.AppendUint32(h, crc32.Checksum(h[8:], castagnoli)) }
	emptyDict := withCRC(craftedHeader(maxBlockSize, maxRows, 1, KindCat, 0, 0, 0, 0))              // dictLen 0: no index rows
	bigSeg := withCRC(craftedHeader(maxBlockSize, maxBlockSize, 1, KindFloat, make([]byte, 32)...)) // bounds, zone min, zone max
	bigSeg = append(le.AppendUint32(bigSeg, uint32(maxSegLen(maxBlockSize))), encFloatRaw, 1, 2, 3)
	for _, tc := range []struct {
		name     string
		file     []byte
		headerOK bool // the lie is about the body: Open stops at the footer, not at the end of the input
	}{
		{"2^36 blocks", craftedHeader(1, 1<<36, 1, KindFloat, bounds...), false},
		{"2^16 columns", craftedHeader(25, 100, maxCols, KindFloat, bounds...), false},
		{"2^22 dict entries", craftedHeader(25, 100, 1, KindCat, 0, 0, 0x40, 0), false}, // dictLen = maxDictLen
		{"2^42 rows, no segment", emptyDict, true},
		{"longest segment", bigSeg, true},
	} {
		name, file := tc.name, tc.file
		if _, err := readMeta(bytes.NewReader(file)); (err == nil) != tc.headerOK {
			t.Fatalf("%s: header parse: %v, want success: %v", name, err, tc.headerOK)
		}
		path := filepath.Join(t.TempDir(), "crafted.ffs")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, seqErr := ReadSequential(bytes.NewReader(file))
		s, openErr := Open(path, OpenOptions{})
		runtime.ReadMemStats(&after)
		if openErr == nil {
			s.Close()
		}
		if seqErr == nil || openErr == nil {
			t.Fatalf("%s: a %d-byte file was accepted (sequential: %v, open: %v)", name, len(file), seqErr, openErr)
		}
		eof := func(err error) bool { return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) }
		if !eof(seqErr) || !(eof(openErr) || tc.headerOK) {
			t.Errorf("%s: refused with %v and %v, want the end of the input", name, seqErr, openErr)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("%s: refusing a %d-byte file allocated %d bytes, want at most %d", name, len(file), got, limit)
		}
	}
}

// TestCorruptSegmentDetected flips a byte inside a known data segment
// of a v4 file and requires the read to be classified as a checksum
// BlockError naming the damaged block — corruption can't leak
// into decoded values.
func TestCorruptSegmentDetected(t *testing.T) {
	path, meta, floats, _ := writeFixtureFile(t, 500, 25, 6, 21)
	// Locate segment (col 0, block 3) via a throwaway store handle.
	probe, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	off := probe.dir[0].offs[3] + int64(probe.dir[0].lens[3])/2
	probe.Close()
	flipByte(t, path, off)

	s, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = s.ReadFloatBlock(0, 3, nil, nil)
	var be *BlockError
	if !errors.As(err, &be) {
		t.Fatalf("want *BlockError, got %v", err)
	}
	if be.Kind != ErrChecksum || be.Col != 0 || be.Block != 3 {
		t.Fatalf("got %v, want checksum error at col 0 block 3", be)
	}
	// Undamaged blocks still decode bit-exactly.
	vals, _, err := s.ReadFloatBlock(0, 0, nil, nil)
	if err != nil {
		t.Fatalf("clean block: %v", err)
	}
	st, en := 0, meta.BlockRows(0)
	for i := st; i < en; i++ {
		if math.Float64bits(vals[i]) != math.Float64bits(floats[0][i]) {
			t.Fatalf("clean block row %d differs", i)
		}
	}
	if fs := s.FaultStats(); fs.ChecksumFailures == 0 {
		t.Errorf("checksum failure not counted: %+v", fs)
	}
	s.Close()
}

// TestRetryTransientHeals injects a fault on the first two attempts of
// one block's load: the pool must back off (recorded, not slept),
// retry, and return bytes identical to a clean read — a healed
// transient is invisible to the query.
func TestRetryTransientHeals(t *testing.T) {
	path, _, floats, _ := writeFixtureFile(t, 500, 25, 6, 5)
	s, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := NewPool(1 << 20)
	defer p.Close()
	var slept []time.Duration
	p.SetRetryPolicy(RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	})
	s.SetFault(func(col, block, attempt int) error {
		if col == 0 && block == 2 && attempt < 2 {
			return fmt.Errorf("injected transient fault (attempt %d)", attempt)
		}
		return nil
	})

	f, err := p.PinFloat(s, 0, 2)
	if err != nil {
		t.Fatalf("pin after transient faults: %v", err)
	}
	got, err := f.FloatBlock(2)
	if err != nil || len(got) != s.Meta().BlockRows(2) {
		t.Fatalf("healed block: %d rows, %v", len(got), err)
	}
	st := 2 * 25
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(floats[0][st+i]) {
			t.Fatalf("healed load row %d differs from clean data", i)
		}
	}
	p.Unpin(f)

	if len(slept) != 2 || slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Errorf("backoff = %v, want [1ms 2ms]", slept)
	}
	st2 := p.Stats()
	if st2.Retries != 2 || st2.IOErrors != 2 || st2.QuarantinedBlocks != 0 {
		t.Errorf("pool stats after heal: %+v", st2)
	}
	fs := s.FaultStats()
	if fs.Retries != 2 || fs.IOErrors != 2 || fs.QuarantinedBlocks != 0 || fs.LastFaultUnixNano == 0 {
		t.Errorf("store stats after heal: %+v", fs)
	}
}

// TestQuarantineAfterExhaustedRetries makes one block fail permanently:
// the load must stop after MaxAttempts physical reads, quarantine the
// block, fail later pins fast (zero further reads), and recover fully
// once the fault clears and the quarantine is lifted.
func TestQuarantineAfterExhaustedRetries(t *testing.T) {
	path, _, _, _ := writeFixtureFile(t, 500, 25, 6, 6)
	s, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetLabel("fixture")

	p := NewPool(1 << 20)
	defer p.Close()
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond,
		Sleep: func(time.Duration) {}})
	var attempts atomic.Int64
	s.SetFault(func(col, block, attempt int) error {
		if col == 0 && block == 1 {
			attempts.Add(1)
			return errors.New("injected permanent fault")
		}
		return nil
	})

	_, err = p.PinFloat(s, 0, 1)
	var be *BlockError
	if !errors.As(err, &be) {
		t.Fatalf("want *BlockError, got %v", err)
	}
	if be.Table != "fixture" || be.Col != 0 || be.Block != 1 || be.Kind != ErrIO {
		t.Fatalf("error identity: %v", be)
	}
	if n := attempts.Load(); n != 3 {
		t.Fatalf("physical attempts = %d, want MaxAttempts = 3", n)
	}

	// Fail-fast: the quarantined block is not re-read.
	if _, err := p.PinFloat(s, 0, 1); !errors.As(err, &be) {
		t.Fatalf("second pin: want *BlockError, got %v", err)
	}
	if n := attempts.Load(); n != 3 {
		t.Fatalf("quarantined pin issued a physical read (attempts = %d)", n)
	}
	if st := p.Stats(); st.QuarantinedBlocks != 1 {
		t.Fatalf("QuarantinedBlocks = %d, want 1", st.QuarantinedBlocks)
	}
	if fs := s.FaultStats(); fs.QuarantinedBlocks != 1 {
		t.Fatalf("store QuarantinedBlocks = %d, want 1", fs.QuarantinedBlocks)
	}

	// Heal: clear the fault and the quarantine; the block loads clean.
	s.SetFault(nil)
	if removed := p.ClearQuarantine(s); removed != 1 {
		t.Fatalf("ClearQuarantine removed %d, want 1", removed)
	}
	f, err := p.PinFloat(s, 0, 1)
	if err != nil {
		t.Fatalf("pin after heal: %v", err)
	}
	p.Unpin(f)
	if st := p.Stats(); st.QuarantinedBlocks != 0 {
		t.Fatalf("QuarantinedBlocks after heal = %d, want 0", st.QuarantinedBlocks)
	}
}

// TestVerifyReportsDamage runs the offline verifier against a clean and
// a bit-flipped file.
func TestVerifyReportsDamage(t *testing.T) {
	path, _, _, _ := writeFixtureFile(t, 500, 25, 6, 9)
	rep, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Version != Version || rep.Rows != 500 {
		t.Fatalf("clean file: %+v", rep)
	}

	probe, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	off := probe.dir[1].offs[7] + 1
	probe.Close()
	flipByte(t, path, off)

	rep, err = Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.BadBlocks != 1 {
		t.Fatalf("damaged file: %+v", rep)
	}
	c := rep.Cols[1]
	if c.BadBlocks != 1 || len(c.BadBlockIDs) != 1 || c.BadBlockIDs[0] != 7 {
		t.Fatalf("damage location: %+v", c)
	}
	if len(c.Errors) != 1 || c.Errors[0].Kind != ErrChecksum {
		t.Fatalf("damage kind: %+v", c.Errors)
	}
}
