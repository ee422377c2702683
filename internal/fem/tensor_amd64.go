package fem

import "unsafe"

// The AVX2 encoding of the float64 element kernel (tensor_amd64.s) and its
// selection. The choice is the hardware's alone: there is no flag, spec
// key or environment variable, because the two encodings are bit-identical
// (the oracle tests in kernel_test.go compare them by math.Float64bits) —
// the Go bodies in tensor.go run where AVX2 is absent, for float32, and as
// the oracle. DESIGN.md, "One kernel, two encodings".

//go:noescape
func cXavx2(m *[3][3]float64, in, out *[81]float64)

//go:noescape
func cYavx2(m *[3][3]float64, in, out *[81]float64)

//go:noescape
func cZavx2(m *[3][3]float64, in, out *[81]float64)

//go:noescape
func tensorGradsAVX2(f, g0, g1, g2 *[81]float64, tab *tensorTables[float64], ks *kernScratchG[float64])

//go:noescape
func tensorScatterWriteAVX2(h0, h1, h2, ye *[81]float64, tab *tensorTables[float64], ks *kernScratchG[float64])

//go:noescape
func residentElementAVX2(coef *[15 * NQP]float64, ue, ye *[81]float64, tab *tensorTables[float64], ks *kernScratchG[float64])

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// state (CPUID and XGETBV).
func cpuHasAVX2() bool

var useAVX2 = cpuHasAVX2()

// The assembly addresses the tables and the scratch arena by literal
// offsets; a layout change stops the build here (a constant index out of
// range).
var _ = [...]struct{}{
	0: {},
}[(unsafe.Offsetof(tables64.d1)-72)|
	(unsafe.Offsetof(tables64.b1t)-144)|
	(unsafe.Offsetof(tables64.d1t)-216)|
	(unsafe.Offsetof(kernScratchG[float64]{}.ug0)-1296)|
	(unsafe.Offsetof(kernScratchG[float64]{}.ug1)-1944)|
	(unsafe.Offsetof(kernScratchG[float64]{}.ug2)-2592)|
	(unsafe.Offsetof(kernScratchG[float64]{}.h0)-3240)|
	(unsafe.Offsetof(kernScratchG[float64]{}.h1)-3888)|
	(unsafe.Offsetof(kernScratchG[float64]{}.h2)-4536)|
	(unsafe.Offsetof(kernScratchG[float64]{}.t0)-5184)|
	(unsafe.Offsetof(kernScratchG[float64]{}.t1)-5832)|
	(unsafe.Offsetof(kernScratchG[float64]{}.t2)-6480)|
	(unsafe.Offsetof(kernScratchG[float64]{}.t3)-7128)|
	(unsafe.Offsetof(kernScratchG[float64]{}.t4)-7776)|
	(unsafe.Offsetof(kernScratchG[float64]{}.t5)-8424)]

// KernelName names the encoding the float64 element kernel runs in on this
// host: "avx2" or "go".
func KernelName() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// setVectorKernel is the test hook behind export_test.go: it turns the
// vector encoding off, or back on where the CPU has it, and returns the
// previous setting.
func setVectorKernel(on bool) (was bool) {
	was, useAVX2 = useAVX2, on && cpuHasAVX2()
	return was
}

// tensorGrads64, tensorScatterWrite64 and residentElement64 are the
// float64 entry points of every production kernel: the assembly where the
// hardware has AVX2, the generic Go body otherwise.

func tensorGrads64(f, g0, g1, g2 *[81]float64, ks *kernScratchG[float64]) {
	if useAVX2 {
		tensorGradsAVX2(f, g0, g1, g2, &tables64, ks)
		return
	}
	tensorGrads(f, g0, g1, g2, &tables64, ks)
}

func tensorScatterWrite64(h0, h1, h2, ye *[81]float64, ks *kernScratchG[float64]) {
	if useAVX2 {
		tensorScatterWriteAVX2(h0, h1, h2, ye, &tables64, ks)
		return
	}
	tensorScatterWrite(h0, h1, h2, ye, &tables64, ks)
}

func residentElement64(coef *[15 * NQP]float64, ue, ye *[81]float64, ks *kernScratchG[float64]) {
	if useAVX2 {
		residentElementAVX2(coef, ue, ye, &tables64, ks)
		return
	}
	residentElement(coef[:], ue, ye, &tables64, ks)
}
