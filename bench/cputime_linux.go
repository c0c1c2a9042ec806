package main

import (
	"syscall"
	"time"
	"unsafe"
)

// processCPUTime reads the CPU-time clock of another process (what
// clock_getcpuclockid(3) names): every thread's user and system time,
// summed by the kernel.
func processCPUTime(pid int) (time.Duration, error) {
	const cpuclockSched = 2
	id := int32(^uint32(pid)<<3 | cpuclockSched)
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, errno
	}
	return time.Duration(ts.Nano()), nil
}
