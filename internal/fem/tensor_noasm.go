//go:build !amd64

package fem

// The portable float64 entry points: the generic Go bodies of tensor.go
// (tensor_amd64.go has the ones that select the assembly).

// KernelName names the encoding the float64 element kernel runs in on this
// host: always "go" here.
func KernelName() string { return "go" }

// setVectorKernel is the test hook behind export_test.go; there is no
// vector encoding to switch.
func setVectorKernel(bool) (was bool) { return false }

func tensorGrads64(f, g0, g1, g2 *[81]float64, ks *kernScratchG[float64]) {
	tensorGrads(f, g0, g1, g2, &tables64, ks)
}

func tensorScatterWrite64(h0, h1, h2, ye *[81]float64, ks *kernScratchG[float64]) {
	tensorScatterWrite(h0, h1, h2, ye, &tables64, ks)
}

func residentElement64(coef *[15 * NQP]float64, ue, ye *[81]float64, ks *kernScratchG[float64]) {
	residentElement(coef[:], ue, ye, &tables64, ks)
}
