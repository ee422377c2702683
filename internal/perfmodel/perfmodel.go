// Package perfmodel reproduces the analytic cost model behind Table I of
// the paper: per-element flop and byte counts for the four operator
// application strategies, a measured machine balance (STREAM-like triad
// bandwidth and floating-point throughput), and the roofline-predicted
// application time. Absolute numbers differ from the paper's Edison node;
// the *counts* and the resulting crossovers are machine independent.
package perfmodel

import (
	"time"
)

// OpCounts summarizes one operator variant's per-element cost.
type OpCounts struct {
	Name string
	// Flops per element per application.
	Flops float64
	// BytesPerfect / BytesPessimal bound the memory traffic per element
	// per application (perfect vs. no cache reuse of shared nodal data).
	BytesPerfect, BytesPessimal float64
}

// ArithmeticIntensity returns flops per byte at the given cache
// assumption (perfect=true ⇒ optimistic bytes).
func (c OpCounts) ArithmeticIntensity(perfect bool) float64 {
	b := c.BytesPessimal
	if perfect {
		b = c.BytesPerfect
	}
	if b == 0 {
		return 0
	}
	return c.Flops / b
}

// PaperTableI returns the paper's published per-element counts (Table I,
// Edison, 64-bit values with implicit column indices for the assembled
// case).
func PaperTableI() []OpCounts {
	return []OpCounts{
		{Name: "Assembled", Flops: 9216, BytesPerfect: 37248, BytesPessimal: 37248},
		{Name: "Matrix-free", Flops: 53622, BytesPerfect: 1008, BytesPessimal: 2376},
		{Name: "Tensor", Flops: 15228, BytesPerfect: 1008, BytesPessimal: 2376},
		{Name: "TensorC", Flops: 14214, BytesPerfect: 4920, BytesPessimal: 5832},
	}
}

// ReproCounts returns the analytic per-element counts of THIS
// implementation, derived from the kernels in internal/fem:
//
//   - Assembled: 2 flops per stored nonzero; 4608 nonzeros per element
//     (81×81 element blocks overlapped as in the paper); our CSR stores
//     8-byte values AND 8-byte column indices (64-bit indices, as the
//     paper also uses), so bytes are higher than the paper's
//     implicit-index accounting.
//   - MF: 27 quadrature points × (Jacobian 486 + inversion ~40 +
//     basis-gradient mapping 405 + velocity gradient 486 + stress 27 +
//     scatter 486) ≈ 52k flops; data = coordinates/state/residual
//     (81×8 B each) + η (27×8) + E_e (27×4, int32).
//   - Tensor: 24 1-D contractions × 405 flops + quadrature loop ≈ 14k.
//     (The slab-scheduled scatter adds boundary-node merge traffic on top
//     of these per-element counts — see SlabMergeBytes — but leaves the
//     per-element flop/byte counts themselves unchanged.)
//   - TensorC: 16 contractions + 27×~105-flop quadrature loop ≈ 9.5k
//     flops, plus 15 stored floats per quadrature point streamed in
//     (3240 B/element) — fewer flops than Tensor, more bytes, exactly the
//     trade the paper describes (our store keeps 15 scalars vs. the
//     paper's 21; see DESIGN.md, "Substitutions (paper → this repo)").
func ReproCounts() []OpCounts {
	const (
		nodal   = 81 * 8.0 // one 27-node × 3-component field in bytes
		etaB    = 27 * 8.0
		emapB   = 27 * 4.0
		sharing = 3.375 // interior nodes are shared by up to 8 elements (27/8)
	)
	mfPerfect := 3*nodal/sharing + etaB + emapB
	mfPessimal := 3*nodal + etaB + emapB
	tcPerfect := 2*nodal/sharing + 15*27*8 + emapB
	tcPessimal := 2*nodal + 15*27*8 + emapB
	return []OpCounts{
		{Name: "Assembled", Flops: 2 * 4608, BytesPerfect: 4608 * 16, BytesPessimal: 4608 * 16},
		{Name: "Matrix-free", Flops: 52110, BytesPerfect: mfPerfect, BytesPessimal: mfPessimal},
		{Name: "Tensor", Flops: 14200, BytesPerfect: mfPerfect, BytesPessimal: mfPessimal},
		{Name: "TensorC", Flops: 9500, BytesPerfect: tcPerfect, BytesPessimal: tcPessimal},
	}
}

// ResidentCounts returns the per-element counts of the stored-coefficient
// resident operator (the TensorC kernel restructured for cache-blocked
// smoothing). The flop count is TensorC's; the byte count halves the
// dominant term — the 15 stored coefficients per quadrature point — when
// the coefficients are stored in float32 (3240 → 1620 B/element). Nodal
// state and output stay float64 on both paths (the global vectors are
// double), so only the coefficient stream narrows. The float32 count
// prices the mf32 kernel the benchmark times beside mfc; no solver runs
// it.
func ResidentCounts(f32 bool) OpCounts {
	const (
		nodal = 81 * 8.0
		emapB = 27 * 4.0
	)
	coefB := 15 * 27 * 8.0
	name := "Resident"
	if f32 {
		coefB = 15 * 27 * 4.0
		name = "Resident32"
	}
	return OpCounts{
		Name:          name,
		Flops:         9500,
		BytesPerfect:  2*nodal/3.375 + coefB + emapB,
		BytesPessimal: 2*nodal + coefB + emapB,
	}
}

// SlabMergeBytes estimates the extra memory traffic of the slab-partitioned
// owner-computes scatter (internal/fem slab schedule) per operator
// application: every slab-boundary ("shared") node carries 3 components ×
// 8 B through roughly six passes — zeroing the overlap buffer, the
// accumulate read+write during element scatter, the merge-pass read, and
// the output read+write. Interior nodes cost nothing beyond the per-element
// counts in ReproCounts. The boundary fraction is O(S/nel^(1/3)), so this
// term matters only on small (coarse-level) grids — exactly where
// matrix-free and assembled applies are closest.
func SlabMergeBytes(sharedNodes int) float64 {
	return float64(sharedNodes) * 3 * 8 * 6
}

// Machine is a two-parameter roofline: sustainable memory bandwidth and
// floating-point throughput. VectorRate is the second compute ceiling, the
// one fem's AVX2 element kernel runs under; Vector returns the machine
// seen from that kernel.
type Machine struct {
	StreamBW   float64 // bytes/s
	FlopRate   float64 // flops/s, scalar (MeasureFlops)
	VectorRate float64 // flops/s, packed mul+add without FMA (MeasureVectorFlops); 0: no vector encoding
}

// Vector returns m with the vector ceiling as its flop rate — the roofline
// of a kernel in its vector encoding — or m itself where there is none.
func (m Machine) Vector() Machine {
	if m.VectorRate > 0 {
		m.FlopRate = m.VectorRate
	}
	return m
}

// RooflineTime predicts one element application's time under the roofline
// model: max(flop time, memory time).
func (m Machine) RooflineTime(c OpCounts, perfectCache bool) float64 {
	b := c.BytesPessimal
	if perfectCache {
		b = c.BytesPerfect
	}
	tf := c.Flops / m.FlopRate
	tb := b / m.StreamBW
	if tf > tb {
		return tf
	}
	return tb
}

// MemoryBound reports whether the variant is limited by bandwidth on this
// machine (the paper's central observation: assembled SpMV is, the tensor
// kernel is not).
func (m Machine) MemoryBound(c OpCounts, perfectCache bool) bool {
	b := c.BytesPessimal
	if perfectCache {
		b = c.BytesPerfect
	}
	return b/m.StreamBW > c.Flops/m.FlopRate
}

// MeasureStream measures a STREAM-triad-like sustainable bandwidth
// (bytes/s) with arrays of n float64 (use n large enough to defeat the
// last-level cache; 1<<24 ≈ 400 MB of traffic per sweep).
func MeasureStream(n, reps int) float64 {
	if n < 1024 {
		n = 1024
	}
	if reps < 1 {
		reps = 3
	}
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range b {
		b[i] = 1
		c[i] = 2
	}
	best := 0.0
	for r := 0; r < reps; r++ {
		start := time.Now()
		s := 3.0
		for i := 0; i < n; i++ {
			a[i] = b[i] + s*c[i]
		}
		el := time.Since(start).Seconds()
		// Triad moves 3 arrays of 8 bytes per element (2 reads + 1 write).
		if bw := float64(24*n) / el; bw > best {
			best = bw
		}
	}
	// Defeat dead-code elimination.
	sink = a[n/2]
	return best
}

var sink float64

// MeasureFlops measures a sustainable scalar multiply-add-chain throughput
// (flops/s): the ceiling of the Go kernels, which are scalar. The element
// kernel's vector encoding is measured against MeasureVectorFlops.
func MeasureFlops(n, reps int) float64 {
	if n < 1024 {
		n = 1024
	}
	if reps < 1 {
		reps = 3
	}
	best := 0.0
	// Eight independent accumulator chains to expose ILP.
	for r := 0; r < reps; r++ {
		var a0, a1, a2, a3, a4, a5, a6, a7 = 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
		x := 0.999999
		start := time.Now()
		for i := 0; i < n; i++ {
			a0 = a0*x + 0.0001
			a1 = a1*x + 0.0001
			a2 = a2*x + 0.0001
			a3 = a3*x + 0.0001
			a4 = a4*x + 0.0001
			a5 = a5*x + 0.0001
			a6 = a6*x + 0.0001
			a7 = a7*x + 0.0001
		}
		el := time.Since(start).Seconds()
		if fl := float64(16*n) / el; fl > best {
			best = fl
		}
		sink = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
	}
	return best
}

// MeasureMachine runs the three microbenchmarks with sensible sizes.
func MeasureMachine() Machine {
	return Machine{
		StreamBW:   MeasureStream(1<<24, 3),
		FlopRate:   MeasureFlops(1<<22, 3),
		VectorRate: MeasureVectorFlops(1<<22, 3),
	}
}

// GhostNodes predicts the per-rank ghost-region size of the
// rank-distributed solve (paper §II-D): the number of Q2 nodes rank
// (pi,pj,pk) of a px×py×pz decomposition of an mx×my×mz element grid
// reads but does not own. It reproduces the comm.Layout ownership
// convention analytically — owned node range [2a+1, 2b+1) per axis
// (first part also owns [0,·)), read region [2a, 2·min(b+1,m)+1) — so
// the prediction matches the exchange lists exactly: ghost count =
// ext-box volume − owned-box volume.
func GhostNodes(mx, my, mz, px, py, pz, pi, pj, pk int) int {
	axis := func(m, p, i int) (owned, ext int) {
		a, b := i*m/p, (i+1)*m/p
		lo := 2*a + 1
		if a == 0 {
			lo = 0
		}
		owned = 2*b + 1 - lo
		ext = 2*min(b+1, m) + 1 - 2*a
		return
	}
	ox, ex := axis(mx, px, pi)
	oy, ey := axis(my, py, pj)
	oz, ez := axis(mz, pz, pk)
	return ex*ey*ez - ox*oy*oz
}

// MaxGhostNodes returns the worst per-rank ghost-region size over the
// whole rank grid — the load-balance-relevant number for the halo-bytes
// column of the scaling tables.
func MaxGhostNodes(mx, my, mz, px, py, pz int) int {
	worst := 0
	for pk := 0; pk < pz; pk++ {
		for pj := 0; pj < py; pj++ {
			for pi := 0; pi < px; pi++ {
				if g := GhostNodes(mx, my, mz, px, py, pz, pi, pj, pk); g > worst {
					worst = g
				}
			}
		}
	}
	return worst
}

// HaloExchangeBytes predicts the payload of one owner-broadcast halo
// exchange for a ghost region of the given node count. Packets carry
// values only, three float64 velocity components per ghost node: both
// sides of an exchange know its node list (comm.Layout). An owner-reduce
// apply (ReduceBroadcast) moves twice this volume — partials in, totals
// back.
func HaloExchangeBytes(ghostNodes int) float64 {
	return float64(ghostNodes) * 3 * 8
}
