package telemetry

import "time"

// CPUSample is one reading of the process's cumulative user-mode CPU time
// (every thread: Go code, the collector, the scheduler) and of the wall
// clock. The kernel keeps the CPU figure current, so a sample is of the
// instant of the call.
type CPUSample struct {
	User float64   // user-mode CPU seconds since the process started
	Wall time.Time // when the sample was taken (monotonic)
}

// ReadCPU samples the process's CPU time. Where the platform offers no
// reading User is 0, and every Utilization is 0.
func ReadCPU() CPUSample {
	return CPUSample{User: userCPUSeconds(), Wall: time.Now()}
}

// Utilization is the share of `workers` cores that ran in user mode
// between the earlier sample `from` and s: CPU seconds over wall × workers.
// 1.0 means no serial section and no idle worker; 0 means nothing was
// measured.
func (s CPUSample) Utilization(from CPUSample, workers int) float64 {
	wall := s.Wall.Sub(from.Wall).Seconds()
	if wall <= 0 || workers <= 0 {
		return 0
	}
	return (s.User - from.User) / (wall * float64(workers))
}
