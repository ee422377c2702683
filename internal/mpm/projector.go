package mpm

import (
	"ptatin3d/internal/fem"
	"ptatin3d/internal/par"
)

// Projector performs the approximate local L2 projection of a
// material-point property onto the Q1 corner-vertex mesh (paper Eq. 12):
//
//	f_i = Σ_p N_i(x_p)·f_p / Σ_p N_i(x_p)
//
// where N_i is the trilinear interpolant supported on the elements
// adjacent to vertex i. A serial loop would scatter each point's 8
// trilinear weights into vertex accumulators in point order (the
// reference in projector_test.go); running that scatter concurrently
// would race and reassociate the sums. The Projector instead inverts the
// map: a cached point→vertex incidence table stores, per vertex, its
// contributing (point, corner) pairs in ascending point order, and each
// vertex's reduction is an independent serial sum in exactly the
// reference order. Owner-computes
// over vertices — the PR 4 slab pattern at vertex granularity — so the
// result is bit-identical to the serial projection at any worker count.
//
// The incidence depends only on the points' element assignment; it is
// rebuilt lazily after Invalidate (call it whenever points move,
// relocate, append or vanish) and shared by consecutive projections of
// different properties over the same locations (η and ρ of one
// relinearization). The num/den vertex accumulators are allocated once
// and reused across calls.
type Projector struct {
	prob *fem.Problem
	nv   int

	// Cached incidence: ent[vstart[v]:vstart[v+1]] lists vertex v's
	// contributions as packed 8*point+corner codes, ascending.
	npts   int
	vstart []int
	ent    []int32
	next   []int
	valid  bool

	// Per-call scratch, reused.
	w8       []float64 // Q1 weights, indexed by the same 8*i+c code
	val      []float64 // per-point property values
	num, den []float64
}

// NewProjector builds a projector for the problem's vertex grid.
func NewProjector(prob *fem.Problem) *Projector {
	nv := prob.DA.NVertices()
	return &Projector{
		prob: prob, nv: nv,
		vstart: make([]int, nv+1),
		next:   make([]int, nv),
		num:    make([]float64, nv),
		den:    make([]float64, nv),
	}
}

// Invalidate drops the cached incidence. Call after any operation that
// changes point locations or population (advection, relocation,
// population control, removal).
func (pj *Projector) Invalidate() { pj.valid = false }

// rebuild derives the vertex incidence from the points' current element
// assignment. Filling in ascending point order per vertex is what pins
// the reduction order to the serial reference.
func (pj *Projector) rebuild(pts *Points) {
	da := pj.prob.DA
	n := pts.Len()
	pj.npts = n
	if cap(pj.ent) < 8*n {
		pj.ent = make([]int32, 8*n)
	}
	for v := range pj.vstart {
		pj.vstart[v] = 0
	}
	var vs [8]int32
	for i := 0; i < n; i++ {
		e := int(pts.Elem[i])
		if e < 0 {
			continue
		}
		da.ElemVertices(e, &vs)
		for c := 0; c < 8; c++ {
			pj.vstart[vs[c]+1]++
		}
	}
	for v := 0; v < pj.nv; v++ {
		pj.vstart[v+1] += pj.vstart[v]
	}
	copy(pj.next, pj.vstart[:pj.nv])
	ent := pj.ent[:pj.vstart[pj.nv]]
	for i := 0; i < n; i++ {
		e := int(pts.Elem[i])
		if e < 0 {
			continue
		}
		da.ElemVertices(e, &vs)
		for c := 0; c < 8; c++ {
			v := vs[c]
			ent[pj.next[v]] = int32(8*i + c)
			pj.next[v]++
		}
	}
	pj.valid = true
}

// Project computes the vertex field of one per-point property: value(p)
// supplies the property of point p (e.g. effective viscosity from the
// lithology's flow law) and must be safe for concurrent calls with
// distinct indices and pure in the point index. Vertices whose support
// contains no points keep fallback[i] (pass nil to fall back to the
// nearest populated value sweep). The returned slice is freshly allocated
// (callers retain projected fields across steps as fallbacks).
func (pj *Projector) Project(pts *Points, value func(i int) float64, fallback []float64) []float64 {
	workers := pj.prob.Workers
	n := pts.Len()
	if !pj.valid || pj.npts != n {
		pj.rebuild(pts)
	}
	if cap(pj.w8) < 8*n {
		pj.w8 = make([]float64, 8*n)
	}
	if cap(pj.val) < n {
		pj.val = make([]float64, n)
	}
	w8, val := pj.w8[:8*n], pj.val[:n]
	par.For(workers, n, func(lo, hi int) {
		var nb [8]float64
		for i := lo; i < hi; i++ {
			if pts.Elem[i] < 0 {
				continue
			}
			fem.Q1Eval(pts.Xi[i], pts.Et[i], pts.Ze[i], &nb)
			copy(w8[8*i:8*i+8], nb[:])
			val[i] = value(i)
		}
	})
	num, den := pj.num, pj.den
	out := make([]float64, pj.nv)
	par.For(workers, pj.nv, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			var nm, dn float64
			for k := pj.vstart[v]; k < pj.vstart[v+1]; k++ {
				e := pj.ent[k]
				w := w8[e]
				nm += w * val[e>>3]
				dn += w
			}
			num[v], den[v] = nm, dn
			switch {
			case dn > 0:
				out[v] = nm / dn
			case fallback != nil:
				out[v] = fallback[v]
			default:
				out[v] = 0 // patched below
			}
		}
	})
	if fallback == nil {
		empty := false
		for v := range den {
			if !(den[v] > 0) {
				empty = true
				break
			}
		}
		if empty {
			patchEmptyVertices(pj.prob.DA, out, den)
		}
	}
	return out
}

// ProjectLithologyFields projects per-point viscosity and density —
// computed by the supplied evaluators from each point's lithology and
// state — onto the vertex grid, η and ρ sharing one incidence build, and
// installs them at the problem's quadrature points (the full Eq. 12 →
// Eq. 13 pipeline). It returns the vertex fields so multigrid coefficient
// coarseners can reuse them.
func (pj *Projector) ProjectLithologyFields(pts *Points,
	etaOf, rhoOf func(i int) float64,
	etaPrev, rhoPrev []float64) (etaV, rhoV []float64) {
	etaV = pj.Project(pts, etaOf, etaPrev)
	rhoV = pj.Project(pts, rhoOf, rhoPrev)
	pj.prob.SetCoefficientsVertex(etaV, rhoV)
	return etaV, rhoV
}
