package telemetry

import (
	"runtime"
	"runtime/metrics"
)

// CPUSample is one reading of the Go runtime's cumulative CPU accounting
// (runtime/metrics): seconds spent running user Go code, and seconds
// available in total (GOMAXPROCS × elapsed). The runtime brings both up to
// date together at the end of each garbage-collection cycle, so a sample
// describes the instant the last cycle ended, not the instant of the
// call; a caller that needs it current runs a collection first.
type CPUSample struct {
	User, Total float64
}

// ReadCPU samples the runtime's CPU accounting.
func ReadCPU() CPUSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/user:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out CPUSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.User = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.Total = s[1].Value.Float64()
	}
	return out
}

// Utilization is the share of `workers` cores that ran user Go code
// between the earlier sample `from` and s: CPU seconds over wall × workers.
// The wall time is taken from the samples themselves (ΔTotal/GOMAXPROCS,
// the time between the two collection cycles they describe), so the ratio
// is consistent although neither sample is of "now". 1.0 means no serial
// section and no idle worker; 0 means no collection cycle ended in
// between, so nothing was measured.
func (s CPUSample) Utilization(from CPUSample, workers int) float64 {
	wall := (s.Total - from.Total) / float64(runtime.GOMAXPROCS(0))
	if wall <= 0 || workers <= 0 {
		return 0
	}
	return (s.User - from.User) / (wall * float64(workers))
}
