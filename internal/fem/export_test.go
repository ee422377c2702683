package fem

import (
	"runtime"
	"testing"
)

// BothKernels runs body twice, with the vector encoding of the float64
// element kernel on (where the CPU has it) and off, through the package's
// setVectorKernel hook. body returns a hash (comm.HashFloats from
// comm.HashSeed) of the results it pins: both runs must return recorded —
// on amd64, where neither encoding fuses a multiply-add; elsewhere the
// compiler may fuse the Go bodies, so only the two runs are compared.
func BothKernels(t *testing.T, recorded uint64, body func(t *testing.T) uint64) {
	t.Helper()
	var got [2]uint64
	for i, vector := range []bool{true, false} {
		name := "go"
		if vector {
			name = "vector"
		}
		t.Run(name, func(t *testing.T) {
			defer setVectorKernel(setVectorKernel(vector))
			if vector && KernelName() != "avx2" {
				t.Log("no vector encoding on this host: the Go bodies run twice")
			}
			got[i] = body(t)
			if runtime.GOARCH == "amd64" && got[i] != recorded {
				t.Errorf("results hash to %#x, recorded %#x", got[i], recorded)
			}
		})
	}
	if got[0] != got[1] {
		t.Errorf("vector and Go encodings differ: %#x vs %#x", got[0], got[1])
	}
}

// The oracle of the viscous-block assembly and its fixture, for the
// external tests of the A·P product.
var (
	MixedBCProblem = mixedBCProblem
	ScatterViscous = scatterViscous
	SameCSR        = sameCSR
)
