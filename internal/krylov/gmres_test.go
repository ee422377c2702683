package krylov

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ptatin3d/internal/la"
)

// eagerGMRES is restarted right-preconditioned (F)GMRES with modified
// Gram–Schmidt on the shared-memory path, written the way gmresCore used to
// be: the whole restart window of basis vectors allocated before the first
// iteration. The reference the grow-on-demand basis is compared against.
func eagerGMRES(a Op, m Preconditioner, b, x la.Vec, rtol float64, mr, maxIt int, flexible bool) (hist []float64, vectors int) {
	n := a.N()
	r, w, zt := la.NewVec(n), la.NewVec(n), la.NewVec(n)
	a.Apply(x, r)
	r.AYPX(-1, b)
	r0 := r.Norm2()
	hist = append(hist, r0)
	v := make([]la.Vec, mr+1)
	for i := range v {
		v[i] = la.NewVec(n)
	}
	vectors = mr + 1
	z := make([]la.Vec, mr)
	if flexible {
		for i := range z {
			z[i] = la.NewVec(n)
		}
		vectors += mr
	}
	h := make([]float64, (mr+1)*mr)
	cs, sn, g := make([]float64, mr), make([]float64, mr), make([]float64, mr+1)
	done := false
	for it := 0; it < maxIt && !done; {
		a.Apply(x, r)
		r.AYPX(-1, b)
		beta := r.Norm2()
		if beta <= rtol*r0 {
			break
		}
		v[0].Copy(r)
		v[0].Scale(1 / beta)
		for i := range g {
			g[i] = 0
		}
		g[0] = beta
		j := 0
		for ; j < mr && it < maxIt; j++ {
			it++
			if flexible {
				m.Apply(v[j], z[j])
				a.Apply(z[j], w)
			} else {
				m.Apply(v[j], zt)
				a.Apply(zt, w)
			}
			for i := 0; i <= j; i++ {
				hij := w.Dot(v[i])
				h[i*mr+j] = hij
				w.AXPY(-hij, v[i])
			}
			hj1 := w.Norm2()
			h[(j+1)*mr+j] = hj1
			if hj1 != 0 {
				v[j+1].Copy(w)
				v[j+1].Scale(1 / hj1)
			}
			for i := 0; i < j; i++ {
				t := cs[i]*h[i*mr+j] + sn[i]*h[(i+1)*mr+j]
				h[(i+1)*mr+j] = -sn[i]*h[i*mr+j] + cs[i]*h[(i+1)*mr+j]
				h[i*mr+j] = t
			}
			den := math.Hypot(h[j*mr+j], hj1)
			cs[j], sn[j] = h[j*mr+j]/den, hj1/den
			h[j*mr+j] = den
			g[j+1] = -sn[j] * g[j]
			g[j] = cs[j] * g[j]
			rn := math.Abs(g[j+1])
			hist = append(hist, rn)
			if rn <= rtol*r0 {
				j++
				done = true
				break
			}
		}
		y := make([]float64, j)
		for i := j - 1; i >= 0; i-- {
			s := g[i]
			for k := i + 1; k < j; k++ {
				s -= h[i*mr+k] * y[k]
			}
			y[i] = s / h[i*mr+i]
		}
		if flexible {
			for i := 0; i < j; i++ {
				x.AXPY(y[i], z[i])
			}
		} else {
			zt.Zero()
			for i := 0; i < j; i++ {
				zt.AXPY(y[i], v[i])
			}
			u := la.NewVec(n)
			m.Apply(zt, u)
			x.AXPY(1, u)
		}
	}
	return hist, vectors
}

// TestGMRESLazyBasisSameIterates: allocating v[j+1] and z[j] when
// iteration j first needs them changes neither the iterate nor one
// residual of the history — against the eager-allocation reference, with
// and without restarts, flexible and not — and a solve that takes k
// iterations holds at most 2k+2 basis vectors, where the eager form held
// the whole window.
func TestGMRESLazyBasisSameIterates(t *testing.T) {
	a := nonsym(300)
	d := la.NewVec(a.NRows)
	a.Diag(d)
	rng := rand.New(rand.NewSource(31))
	b := randVec(rng, a.NRows)
	x0 := randVec(rng, a.NRows)
	for _, flexible := range []bool{true, false} {
		for _, restart := range []int{80, 6} {
			name := fmt.Sprintf("flexible=%v restart=%d", flexible, restart)
			prm := DefaultParams()
			prm.RTol, prm.Restart, prm.MaxIt = 1e-10, restart, 200
			prm, history := traced(prm)
			x := slices.Clone(x0)
			solve := GMRES
			if flexible {
				solve = FGMRES
			}
			res := solve(CSROp{a}, NewJacobi(d), b, x, prm)
			xe := slices.Clone(x0)
			hist, eager := eagerGMRES(CSROp{a}, NewJacobi(d), b, xe, prm.RTol, restart, prm.MaxIt, flexible)
			if !res.Converged || (restart == 6) != (res.Iterations > restart) {
				t.Fatalf("%s: converged=%v after %d iterations: only the short window should restart", name, res.Converged, res.Iterations)
			}
			got := history()
			if len(got) != len(hist) {
				t.Fatalf("%s: %d residuals, reference %d", name, len(got), len(hist))
			}
			sameBits(t, name+" history", got, hist)
			sameBits(t, name+" iterate", x, xe)
			want := min(res.Iterations, restart) + 1
			if flexible {
				want += min(res.Iterations, restart)
			}
			if res.BasisVectors != want || res.BasisVectors > 2*res.Iterations+2 {
				t.Fatalf("%s: %d basis vectors after %d iterations, want %d (eager: %d)",
					name, res.BasisVectors, res.Iterations, want, eager)
			}
			if restart == 80 && res.BasisVectors >= eager {
				t.Fatalf("%s: %d basis vectors, no fewer than the eager %d", name, res.BasisVectors, eager)
			}
		}
	}
}

// cloneGCR is GCR as it was before the workspace: one working pair (z, q)
// that every iteration overwrites, and a clone of both appended to the
// stored directions — the reference for "the preconditioner and the
// operator write straight into the next slot".
func cloneGCR(a Op, m Preconditioner, b, x la.Vec, rtol float64, restart, maxit int) (hist []float64) {
	n := a.N()
	r, z, q := la.NewVec(n), la.NewVec(n), la.NewVec(n)
	a.Apply(x, r)
	r.AYPX(-1, b)
	r0 := r.Norm2()
	hist = append(hist, r0)
	var zs, qs []la.Vec
	for it := 1; it <= maxit; it++ {
		m.Apply(r, z)
		a.Apply(z, q)
		for i := range qs {
			beta := q.Dot(qs[i])
			q.AXPY(-beta, qs[i])
			z.AXPY(-beta, zs[i])
		}
		qn := q.Norm2()
		q.Scale(1 / qn)
		z.Scale(1 / qn)
		alpha := r.Dot(q)
		x.AXPY(alpha, z)
		r.AXPY(-alpha, q)
		rn := r.Norm2()
		hist = append(hist, rn)
		if rn <= rtol*r0 {
			break
		}
		if len(qs) == restart {
			zs, qs = zs[:0], qs[:0]
		}
		zs, qs = append(zs, slices.Clone(z)), append(qs, slices.Clone(q))
	}
	return hist
}

// TestWorkspaceSameIteratesNoRealloc: GCR building each direction in its
// slot matches the clone-per-iteration reference bit for bit, restarts
// included; and for GCR and FGMRES alike a lent Workspace changes neither
// an iterate nor a residual nor Result.BasisVectors, while the second of
// two solves takes every vector from the store the first one filled.
func TestWorkspaceSameIteratesNoRealloc(t *testing.T) {
	a := nonsym(300)
	d := la.NewVec(a.NRows)
	a.Diag(d)
	rng := rand.New(rand.NewSource(37))
	b1, b2 := randVec(rng, a.NRows), randVec(rng, a.NRows)
	for _, method := range []string{"gcr", "fgmres"} {
		for _, restart := range []int{80, 6} {
			name := fmt.Sprintf("%s restart=%d", method, restart)
			prm := DefaultParams()
			prm.RTol, prm.Restart, prm.MaxIt = 1e-10, restart, 200
			lent := prm
			lent.Work = new(Workspace)
			held := 0
			for i, b := range []la.Vec{b1, b2, b1} {
				x, xw := la.NewVec(a.NRows), la.NewVec(a.NRows)
				p, history := traced(prm)
				pw, historyW := traced(lent)
				res := Solve(method, CSROp{a}, NewJacobi(d), b, x, p)
				resW := Solve(method, CSROp{a}, NewJacobi(d), b, xw, pw)
				hist := history()
				if !res.Converged || (restart == 6) != (res.Iterations > restart) {
					t.Fatalf("%s: converged=%v after %d iterations: only the short window should restart", name, res.Converged, res.Iterations)
				}
				sameBits(t, name+" history", historyW(), hist)
				sameBits(t, name+" iterate", xw, x)
				if resW.BasisVectors != res.BasisVectors || resW.Iterations != res.Iterations {
					t.Fatalf("%s: lent workspace: %d basis vectors in %d iterations, without %d in %d",
						name, resW.BasisVectors, resW.Iterations, res.BasisVectors, res.Iterations)
				}
				if method == "gcr" {
					xc := la.NewVec(a.NRows)
					sameBits(t, name+" history vs clone reference", hist, cloneGCR(CSROp{a}, NewJacobi(d), b, xc, prm.RTol, restart, prm.MaxIt))
					sameBits(t, name+" iterate vs clone reference", x, xc)
				}
				// The third solve repeats the first: whatever the second
				// needed beyond it is in the store by now.
				if i == 2 && len(lent.Work.vecs) != held {
					t.Fatalf("%s: the store grew from %d to %d vectors on a repeated solve", name, held, len(lent.Work.vecs))
				}
				held = len(lent.Work.vecs)
			}
		}
	}
}
