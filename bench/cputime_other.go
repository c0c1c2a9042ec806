//go:build !linux

package main

import (
	"errors"
	"time"
)

// The end-to-end run reads /proc and a process CPU clock: Linux only.
func processCPUTime(int) (time.Duration, error) {
	return 0, errors.New("the server's CPU time can only be read on Linux")
}
