package fem

import (
	"math/bits"

	"ptatin3d/internal/la"
)

// The run table: how every element loop moves element data. A Q2
// element's 27 nodes are nine node lines of three nodes consecutive in
// the DA's node order (local nodes 3r, 3r+1, 3r+2 of line r), so an
// element's 81 dofs are nine runs of 9 contiguous dofs of a nodal vector,
// run r starting at dof 3·Emap[27e+3r] — pTatin3D's DMDA layout. Gathers
// copy whole runs and scatters add whole runs, where a per-dof loop would
// index Emap and test BC.Mask 81 times per element.
//
// Per element the table holds the nine run starts, the 81-dof constraint
// mask as two words (bit 3n+c: dof c of local node n is constrained), and
// per run where the block schedule sends it (runKind). It is built with
// the slab partition, on a Problem's first element loop, from Emap and
// BC.Mask as they are then: neither may change afterwards. A Problem
// whose Emap lists a node line out of order has no run table: building
// it panics.

// runKind says where the block schedule's scatter sends a run.
type runKind uint8

const (
	// runOut: three nodes of the slab alone; the free dofs add into y.
	runOut runKind = iota
	// runBuf: three nodes at consecutive shared-list indices; all nine
	// dofs add into the slab's overlap buffer.
	runBuf
	// runMixed: a slab boundary inside the node line; the scatter goes
	// node by node.
	runMixed
)

// elemRuns is one element's row of the run table (64 bytes).
type elemRuns struct {
	mask  [2]uint64  // constrained dofs: bit i of the 81 element dofs
	start [9]int32   // first dof of run r
	kind  [9]runKind // where the block schedule sends run r
}

// runMask returns the constraint bits of run r's nine dofs.
func (er *elemRuns) runMask(r int) uint64 {
	b := uint(9 * r)
	if b < 64 {
		return (er.mask[0]>>b | er.mask[1]<<(64-b)) & 0x1ff
	}
	return er.mask[1] >> (b - 64) & 0x1ff
}

// newRunTable builds the run table of the slab partition info.
func newRunTable(p *Problem, info *slabInfo) []elemRuns {
	runs := make([]elemRuns, p.DA.NElements())
	mask := p.BC.Mask
	for e := range runs {
		er := &runs[e]
		em := p.Emap[27*e : 27*e+27]
		for i, n := range em {
			for c := 0; c < 3; c++ {
				if mask[3*int(n)+c] {
					er.mask[(3*i+c)/64] |= 1 << uint((3*i+c)%64)
				}
			}
		}
		for r := 0; r < 9; r++ {
			n0, n1, n2 := em[3*r], em[3*r+1], em[3*r+2]
			t0, t1, t2 := info.sharedIdx[n0], info.sharedIdx[n1], info.sharedIdx[n2]
			if n1 != n0+1 || n2 != n0+2 {
				panic("fem: an element's node line is not three consecutive nodes")
			}
			er.start[r], er.kind[r] = 3*n0, runMixed
			switch {
			case t0 < 0 && t1 < 0 && t2 < 0:
				er.kind[r] = runOut
			case t0 >= 0 && t1 == t0+1 && t2 == t0+2:
				er.kind[r] = runBuf
			}
		}
	}
	return runs
}

// gatherRuns fills ve with the element's 81 entries of the nodal vector
// v, run by run.
func gatherRuns(er *elemRuns, v []float64, ve *[81]float64) {
	for r, s := range er.start {
		// Nine moves: copy, or an array assignment, would call memmove
		// once per run.
		dst := (*[9]float64)(ve[9*r : 9*r+9])
		src := (*[9]float64)(v[s:])
		dst[0], dst[1], dst[2] = src[0], src[1], src[2]
		dst[3], dst[4], dst[5] = src[3], src[4], src[5]
		dst[6], dst[7], dst[8] = src[6], src[7], src[8]
	}
}

// zeroMasked writes +0 at the element's constrained entries of ue: the
// masked gather of the symmetric Dirichlet elimination.
func (er *elemRuns) zeroMasked(ue *[81]float64) {
	for w := er.mask[0]; w != 0; w &= w - 1 {
		ue[bits.TrailingZeros64(w)] = 0
	}
	for w := er.mask[1]; w != 0; w &= w - 1 {
		ue[64+bits.TrailingZeros64(w)] = 0
	}
}

// scatterRuns adds ye into the free rows of y, run by run: a run with no
// constrained dof adds its nine entries at once.
func scatterRuns(er *elemRuns, ye *[81]float64, y la.Vec) {
	for r, s := range er.start {
		src := (*[9]float64)(ye[9*r : 9*r+9])
		m := er.runMask(r)
		if m == 0 {
			// Nine adds, written out: the function that held them would
			// be too large to inline.
			d := (*[9]float64)(y[s:])
			d[0], d[1], d[2] = d[0]+src[0], d[1]+src[1], d[2]+src[2]
			d[3], d[4], d[5] = d[3]+src[3], d[4]+src[4], d[5]+src[5]
			d[6], d[7], d[8] = d[6]+src[6], d[7]+src[7], d[8]+src[8]
			continue
		}
		for j := range src {
			if m>>uint(j)&1 == 0 {
				y[int(s)+j] += src[j]
			}
		}
	}
}

// runs returns the Problem's run table, building it (and the slab
// partition) on first use.
func (p *Problem) runs() []elemRuns { return p.slabs().runs }
