package mpm

import (
	"math"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/par"
)

// Point location (paper §II-D): given a physical position, find the
// containing element and local coordinate ξ. On deformed hexahedral
// meshes the inverse isoparametric map has no closed form, so each
// candidate element is tested with a Newton iteration; if the converged
// local coordinate falls outside [-1,1]³ the search walks to the
// neighbouring element indicated by the violated bound — a standard
// robust "walking" strategy that terminates in a few hops for the
// boundary-fitted meshes used here.

const (
	locBounds  = 1.0 + 1e-8
	maxWalkHop = 64
)

// Locate finds the element containing (x,y,z), starting the walk from
// eGuess (pass a previous location, or -1 to derive a guess from the mean
// element size assuming a roughly regular mesh). Returns found=false for
// points outside the domain. The walk moves the cursor c, which is left
// on the returned element; a point it accepts from a Newton iteration
// that did not converge is counted (LocateUnconverged), not refused.
func Locate(c *fem.ElemCursor, x, y, z float64, eGuess int) (e int, xi, et, ze float64, found bool) {
	da := c.P.DA
	if eGuess < 0 || eGuess >= da.NElements() {
		eGuess = guessElement(c, x, y, z)
	}
	ei, ej, ek := da.ElemIJK(eGuess)
	c.Stats[fem.LocateCalls]++
	for hop := 0; hop < maxWalkHop; hop++ {
		e = da.ElemID(ei, ej, ek)
		c.Seek(e)
		var converged bool
		xi, et, ze, converged = c.InvertMap(x, y, z)
		inX := math.Abs(xi) <= locBounds
		inY := math.Abs(et) <= locBounds
		inZ := math.Abs(ze) <= locBounds
		if inX && inY && inZ {
			if !converged {
				c.Stats[fem.LocateUnconverged]++
			}
			return e, xi, et, ze, true
		}
		// Walk one element in each violated direction that can still move.
		// Only if *no* violated direction can move is the point outside
		// the domain: a direction pinned at the boundary may only be
		// violated transiently while other directions are still far off.
		moved := false
		step := func(v float64, idx, max int) (int, bool) {
			if v > locBounds && idx < max-1 {
				return idx + 1, true
			}
			if v < -locBounds && idx > 0 {
				return idx - 1, true
			}
			return idx, false
		}
		var m bool
		if !inX {
			if ei, m = step(xi, ei, da.Mx); m {
				moved = true
			}
		}
		if !inY {
			if ej, m = step(et, ej, da.My); m {
				moved = true
			}
		}
		if !inZ {
			if ek, m = step(ze, ek, da.Mz); m {
				moved = true
			}
		}
		if !moved {
			return e, xi, et, ze, false
		}
		c.Stats[fem.LocateHops]++
	}
	return e, xi, et, ze, false
}

// guessElement estimates a starting element from the domain bounding box.
func guessElement(c *fem.ElemCursor, x, y, z float64) int {
	da, box := c.P.DA, c.Box()
	idx := func(v, lo, hi float64, m int) int {
		if hi <= lo {
			return 0
		}
		i := int(float64(m) * (v - lo) / (hi - lo))
		if i < 0 {
			i = 0
		}
		if i > m-1 {
			i = m - 1
		}
		return i
	}
	return da.ElemID(idx(x, box[0], box[3], da.Mx), idx(y, box[1], box[4], da.My), idx(z, box[2], box[5], da.Mz))
}

// LocateAll (re)locates every point, using its cached element as the walk
// start. Points that left the domain get Elem = -1 and are returned as a
// list of indices (the Ls list of §II-D, in the single-rank view; with a
// domain decomposition, MigratePoints routes them to neighbour ranks
// first and only then discards true outflow).
// Each point's walk is independent and writes only its own slots, so the
// location pass runs on the worker pool; the lost list is assembled by a
// serial sweep afterwards so it is always in ascending index order,
// exactly as the serial loop produced it.
func LocateAll(prob *fem.Problem, pts *Points) (lost []int) {
	return locateAll(prob, pts, prob.Workers)
}

func locateAll(prob *fem.Problem, pts *Points, workers int) (lost []int) {
	n := pts.Len()
	cur := prob.Cursor(nil, nil)
	par.For(workers, n, func(lo, hi int) {
		c := cur
		defer c.Done()
		for i := lo; i < hi; i++ {
			e, xi, et, ze, ok := Locate(&c, pts.X[i], pts.Y[i], pts.Z[i], int(pts.Elem[i]))
			if ok {
				pts.Elem[i] = int32(e)
				pts.Xi[i], pts.Et[i], pts.Ze[i] = xi, et, ze
			} else {
				pts.Elem[i] = -1
			}
		}
	})
	for i := 0; i < n; i++ {
		if pts.Elem[i] < 0 {
			lost = append(lost, i)
		}
	}
	return lost
}
