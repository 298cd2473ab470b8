//go:build !unix

package main

// cpuTimeNS reports CPU time as unavailable where getrusage is missing.
func cpuTimeNS() int64 { return -1 }
