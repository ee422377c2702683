//go:build unix

package telemetry

import "syscall"

// userCPUSeconds is the process's user-mode CPU time, all threads.
func userCPUSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Utime.Sec) + float64(ru.Utime.Usec)*1e-6
}
