package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Linux CPU-time clocks, which package syscall does not name.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// procCPU is the CPU time every thread of the process has used.
func procCPU() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU is the CPU time the calling OS thread has used. It measures
// one goroutine only while runtime.LockOSThread pins that goroutine to
// the thread.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
