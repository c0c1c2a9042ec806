// Package testutil holds the helpers that the tests of more than one
// package share. Only test files import it.
package testutil

import (
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
