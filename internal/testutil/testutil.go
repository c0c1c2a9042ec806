// Package testutil holds the helpers that the tests of more than one
// package share. Only test files import it.
package testutil

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"fastframe/internal/blockstore"
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

// HeaderLen returns the length of a well-formed table file's
// header, its checksum included: the offset of the first segment's length
// prefix, which the first directory entry locates.
func HeaderLen(file []byte) int {
	footerOff := binary.LittleEndian.Uint64(file[len(file)-12:])
	return int(binary.LittleEndian.Uint64(file[footerOff:])) - 4
}

// Rewrite reads a well-formed table file back, lets edit change its
// header and rows, and writes it again, every checksum valid: how a test
// crafts a file no writer produces (a code past its dictionary, a header
// that contradicts its blocks), which the readers must refuse.
func Rewrite(tb testing.TB, file []byte, edit func(m *blockstore.Meta, floats [][]float64, codes [][]uint32)) []byte {
	tb.Helper()
	meta, floats, codes, err := blockstore.ReadSequential(bytes.NewReader(file))
	if err != nil {
		tb.Fatal(err)
	}
	edit(meta, floats, codes)
	var out bytes.Buffer
	w, err := blockstore.NewWriter(&out, meta)
	if err != nil {
		tb.Fatal(err)
	}
	for ci, c := range meta.Cols {
		if c.Kind == blockstore.KindFloat {
			err = w.WriteFloatColumn(ci, floats[ci])
		} else {
			err = w.WriteCatColumn(ci, codes[ci])
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}
