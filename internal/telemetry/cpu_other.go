//go:build !unix

package telemetry

// userCPUSeconds has no reading on this platform.
func userCPUSeconds() float64 { return 0 }
