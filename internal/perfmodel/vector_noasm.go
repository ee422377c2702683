//go:build !amd64

package perfmodel

// MeasureVectorFlops is 0 here: the element kernel has no vector encoding
// on this architecture (vector_amd64.go has the measurement).
func MeasureVectorFlops(n, reps int) float64 { return 0 }
