package fem

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// Oracle tests of the AVX2 encoding (tensor_amd64.s): every assembly
// routine against the Go body it encodes, bit for bit. Operands are carved
// from guarded blocks (guard_*_test.go) that put the first or the last
// float against an inaccessible page and fill the rest of the page with
// sentinels, so a load outside an [81] / [15·27] block faults and a store
// outside it fails the sentinel check — and the blocks are misaligned for
// every vector width as a side effect (648 bytes before a page end).

func needAVX2(t testing.TB) {
	t.Helper()
	if !cpuHasAVX2() {
		t.Skip("no AVX2 on this host")
	}
}

// sameFloat is math.Float64bits equality, any NaN equal to any NaN (which
// of two NaN operands an x86 add or multiply propagates depends on operand
// order, not on the value computed).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, -0x1p-1030,
	math.MaxFloat64, -math.MaxFloat64, 0x1p-600, 0x1p600, 1, -1,
}

// fillKind fills v with one of the input classes: 0 normal deviates, 1
// the same with a tenth of the entries special, 2 mostly special, 3
// magnitudes over the whole exponent range (products overflow, underflow
// and cancel).
func fillKind(rng *rand.Rand, v []float64, kind int) {
	for i := range v {
		x := rng.NormFloat64()
		switch kind {
		case 1:
			if rng.Intn(10) == 0 {
				x = specials[rng.Intn(len(specials))]
			}
		case 2:
			if rng.Intn(4) != 0 {
				x = specials[rng.Intn(len(specials))]
			}
		case 3:
			x = math.Ldexp(x, rng.Intn(2100)-1050)
		}
		v[i] = x
	}
}

const fillKinds = 4

func b81(v []float64) *[81]float64   { return (*[81]float64)(v) }
func m33(v []float64) *[3][3]float64 { return (*[3][3]float64)(unsafe.Pointer(&v[0])) }

var contractions = []struct {
	name string
	asm  func(m *[3][3]float64, in, out *[81]float64)
	ref  func(m *[3][3]float64, in, out *[81]float64)
}{
	{"cX", cXavx2, cX[float64]},
	{"cY", cYavx2, cY[float64]},
	{"cZ", cZavx2, cZ[float64]},
}

// checkContractions runs the three contractions on (m, in) placed at both
// ends of guarded blocks and compares them with the Go bodies.
func checkContractions(t *testing.T, mv, inv []float64) {
	t.Helper()
	var want [81]float64
	for _, atEnd := range []bool{false, true} {
		m, in, out := newGuarded(t, 9, atEnd), newGuarded(t, 81, atEnd), newGuarded(t, 81, atEnd)
		copy(m.v, mv)
		copy(in.v, inv)
		for _, c := range contractions {
			for i := range out.v {
				out.v[i] = 12345 // a stale value a skipped store would leave
			}
			c.ref(m33(mv), b81(inv), &want)
			c.asm(m33(m.v), b81(in.v), b81(out.v))
			for i := range want {
				if !sameFloat(out.v[i], want[i]) {
					t.Fatalf("%s atEnd=%v: out[%d] = %x (%v), Go body %x (%v)", c.name, atEnd, i,
						math.Float64bits(out.v[i]), out.v[i], math.Float64bits(want[i]), want[i])
				}
			}
			m.check(t, c.name+" m")
			in.check(t, c.name+" in")
			out.check(t, c.name+" out")
		}
		m.free()
		in.free()
		out.free()
	}
}

func TestContractionsMatchGo(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(41))
	var mv [9]float64
	var inv [81]float64
	tabs := []*[3][3]float64{&tables64.b1, &tables64.d1, &tables64.b1t, &tables64.d1t}
	for rep := 0; rep < 40; rep++ {
		for kind := 0; kind < fillKinds; kind++ {
			fillKind(rng, inv[:], kind)
			if rep%2 == 0 {
				mv = *(*[9]float64)(unsafe.Pointer(tabs[(rep/2)%4]))
			} else {
				fillKind(rng, mv[:], kind)
			}
			checkContractions(t, mv[:], inv[:])
		}
	}
}

// FuzzContractions feeds the three contractions arbitrary bit patterns:
// the first 72 bytes are m, the rest the field, cycled to length. The seeds
// are the special values of the table above.
func FuzzContractions(f *testing.F) {
	seed := make([]byte, 0, 8*len(specials))
	for _, s := range specials {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(s))
	}
	f.Add(seed)
	f.Add(seed[40:])
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		needAVX2(t)
		if len(data) == 0 {
			return
		}
		var w [90]float64
		for i := range w {
			var b [8]byte
			for k := range b {
				b[k] = data[(8*i+k)%len(data)]
			}
			w[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		checkContractions(t, w[:9], w[9:])
	})
}

// arena views a kernel scratch arena as its floats: the two encodings must
// leave every one of them alike, temporaries included (a masked store that
// spilt into a neighbouring field would show here).
func arena(ks *kernScratchG[float64]) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(ks)), unsafe.Sizeof(*ks)/8)
}

func compareArenas(t *testing.T, what string, got, want *kernScratchG[float64]) {
	t.Helper()
	g, w := arena(got), arena(want)
	for i := range w {
		if !sameFloat(g[i], w[i]) {
			t.Fatalf("%s: scratch float %d (field %d, index %d) = %x, Go body %x", what, i, i/81, i%81,
				math.Float64bits(g[i]), math.Float64bits(w[i]))
		}
	}
}

func TestTensorGradsScatterMatchGo(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(43))
	for rep := 0; rep < 30; rep++ {
		for kind := 0; kind < fillKinds; kind++ {
			for _, atEnd := range []bool{false, true} {
				var ksA, ksG kernScratchG[float64]
				fillKind(rng, arena(&ksG), 0)
				ksA = ksG
				f, y := newGuarded(t, 81, atEnd), newGuarded(t, 81, atEnd)
				fillKind(rng, f.v, kind)
				var yG [81]float64

				tensorGrads(b81(f.v), &ksG.ug0, &ksG.ug1, &ksG.ug2, &tables64, &ksG)
				tensorGradsAVX2(b81(f.v), &ksA.ug0, &ksA.ug1, &ksA.ug2, &tables64, &ksA)
				compareArenas(t, "tensorGrads", &ksA, &ksG)

				fillKind(rng, ksG.h0[:], kind)
				fillKind(rng, ksG.h1[:], kind)
				fillKind(rng, ksG.h2[:], kind)
				ksA.h0, ksA.h1, ksA.h2 = ksG.h0, ksG.h1, ksG.h2
				tensorScatterWrite(&ksG.h0, &ksG.h1, &ksG.h2, &yG, &tables64, &ksG)
				tensorScatterWriteAVX2(&ksA.h0, &ksA.h1, &ksA.h2, b81(y.v), &tables64, &ksA)
				compareArenas(t, "tensorScatterWrite", &ksA, &ksG)
				for i := range yG {
					if !sameFloat(y.v[i], yG[i]) {
						t.Fatalf("tensorScatterWrite: ye[%d] = %x, Go body %x", i, math.Float64bits(y.v[i]), math.Float64bits(yG[i]))
					}
				}
				f.check(t, "f")
				y.check(t, "ye")
				f.free()
				y.free()
			}
		}
	}
}

func TestResidentElementMatchesGo(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(47))
	for rep := 0; rep < 30; rep++ {
		for kind := 0; kind < fillKinds; kind++ {
			for _, atEnd := range []bool{false, true} {
				var ksA, ksG kernScratchG[float64]
				fillKind(rng, arena(&ksG), 0)
				ksA = ksG
				coef := newGuarded(t, 15*NQP, atEnd)
				ue, ye := newGuarded(t, 81, atEnd), newGuarded(t, 81, atEnd)
				fillKind(rng, coef.v, kind)
				fillKind(rng, ue.v, kind)
				var yG [81]float64

				residentElement(coef.v, b81(ue.v), &yG, &tables64, &ksG)
				residentElementAVX2((*[15 * NQP]float64)(coef.v), b81(ue.v), b81(ye.v), &tables64, &ksA)
				compareArenas(t, "residentElement", &ksA, &ksG)
				for i := range yG {
					if !sameFloat(ye.v[i], yG[i]) {
						t.Fatalf("residentElement kind %d: ye[%d] = %x, Go body %x", kind, i, math.Float64bits(ye.v[i]), math.Float64bits(yG[i]))
					}
				}
				coef.check(t, "coef")
				ue.check(t, "ue")
				ye.check(t, "ye")
				coef.free()
				ue.free()
				ye.free()
			}
		}
	}
}
