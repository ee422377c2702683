//go:build unix

package telemetry

import (
	"testing"
	"time"
)

// TestCPUSampleIsCurrent: a sample is of the instant it is taken. A busy
// loop that allocates nothing, so that no collection can run during it,
// still moves the reading forward and reads as a busy core.
func TestCPUSampleIsCurrent(t *testing.T) {
	from := ReadCPU()
	x := 0.0
	for time.Since(from.Wall) < 50*time.Millisecond {
		for i := 0; i < 1000; i++ {
			x += float64(i)
		}
	}
	s := ReadCPU()
	if s.User <= from.User {
		t.Fatalf("user CPU did not advance over a %v busy loop: %g -> %g s (x=%g)", s.Wall.Sub(from.Wall), from.User, s.User, x)
	}
	if u := s.Utilization(from, 1); u <= 0 {
		t.Fatalf("utilization of a busy loop on one core = %g", u)
	}
}
