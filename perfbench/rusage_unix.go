//go:build unix

package main

import "syscall"

// cpuTimeNS reads the process's user+sys CPU time.
func cpuTimeNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return -1
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
