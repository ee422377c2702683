package perfmodel

import (
	"time"

	"ptatin3d/internal/fem"
)

// vectorMulAdd runs n passes of twelve 4-wide a = a·x + c chains
// (vector_amd64.s); n must be positive.
func vectorMulAdd(n int)

// MeasureVectorFlops measures the throughput (flops/s) of packed
// double-precision multiplies and adds issued separately — the instruction
// mix of fem's AVX2 element kernel, which may not fuse them (DESIGN.md,
// "One kernel, two encodings") — and so the ceiling that kernel can reach;
// MeasureFlops stays the ceiling of the Go kernels. 0 where the element
// kernel has no vector encoding (fem.KernelName).
func MeasureVectorFlops(n, reps int) float64 {
	if fem.KernelName() != "avx2" {
		return 0
	}
	n = max(n, 1024)
	best := 0.0
	for r := 0; r < max(reps, 1); r++ {
		start := time.Now()
		vectorMulAdd(n)
		if fl := float64(96*n) / time.Since(start).Seconds(); fl > best {
			best = fl
		}
	}
	return best
}
