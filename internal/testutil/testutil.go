// Package testutil holds the helpers that the tests of more than one
// package share. Only test files import it.
package testutil

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"
)

// GoroutineBaseline notes the goroutine count and, when tb's test ends —
// after every cleanup registered later than this call — fails it unless
// the count comes back down: every query has detached, every driver loop
// has parked and every server has shut down, whichever way the test went.
func GoroutineBaseline(tb testing.TB) {
	baseline := runtime.NumGoroutine()
	tb.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				tb.Errorf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// HeaderLen returns the length of a well-formed v3/v4 table file's
// header, its checksum included: the offset of the first segment's length
// prefix, which the first directory entry locates.
func HeaderLen(file []byte) int {
	footerOff := binary.LittleEndian.Uint64(file[len(file)-12:])
	return int(binary.LittleEndian.Uint64(file[footerOff:])) - 4
}

// StripChecksums rewrites a well-formed v4 table file as the v3 file of
// the same table — version 3, no header, segment or footer CRC, trailing
// magic "FF3E". Nothing writes v3 any more and every reader still accepts
// it; blockstore's TestStripChecksumsMatchesV3Writer holds these bytes to
// a file the last v3 writer left behind.
func StripChecksums(v4 []byte) []byte {
	le := binary.LittleEndian
	blockSize, rows, cols := int(le.Uint32(v4[8:])), int(le.Uint64(v4[12:])), int(le.Uint32(v4[20:]))
	pos := HeaderLen(v4)
	out := append([]byte(nil), v4[:pos-4]...)
	le.PutUint32(out[4:], 3)
	var dir []byte
	for ci := 0; ci < cols; ci++ {
		var offs, lens []byte
		for b := 0; b < (rows+blockSize-1)/blockSize; b++ {
			n := int(le.Uint32(v4[pos:]))
			out = append(out, v4[pos:pos+4+n]...)
			offs = le.AppendUint64(offs, uint64(len(out)-n))
			lens = le.AppendUint32(lens, uint32(n))
			pos += 4 + n + 4
		}
		dir = append(append(dir, offs...), lens...)
	}
	footerOff := uint64(len(out))
	out = le.AppendUint64(append(out, dir...), footerOff)
	return append(out, "FF3E"...)
}
