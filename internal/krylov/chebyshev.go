package krylov

import "ptatin3d/internal/la"

// Chebyshev is the multigrid smoother of paper §III-C: a fixed number of
// Chebyshev iterations preconditioned by M (Jacobi in the paper),
// targeting the eigenvalue interval [Lo, Hi] of M⁻¹·A. Unlike
// multiplicative smoothers it needs only operator applications, so it
// composes with matrix-free operators, parallelizes trivially, and visits
// each quadrature point once per application.
type Chebyshev struct {
	A      Op
	M      Preconditioner
	Lo, Hi float64 // target interval; the paper uses [0.2λmax, 1.1λmax]
	Steps  int     // iterations per Smooth call

	// Spans windows the smoother's BLAS-1 updates to the listed index
	// ranges (a rank's owned+ghost rows), keeping per-rank work and
	// touched memory O(n/P) on the distributed path; nil is the whole
	// vector.
	Spans []la.Span

	// work holds r, z, p and A·p across Smooth calls, so an instance is
	// NOT safe for concurrent Smooth calls: distributed solves give each
	// rank its own instance, and a shared coarse solver's smoothers are
	// entered under the hierarchy's coarse-solve lock.
	work [4]la.Vec
}

// NewChebyshev builds a smoother targeting [0.2λ, 1.1λ] as in the paper,
// where lambdaMax is an estimate of the largest eigenvalue of M⁻¹·A.
func NewChebyshev(a Op, m Preconditioner, lambdaMax float64, steps int) *Chebyshev {
	return &Chebyshev{A: a, M: m, Lo: 0.2 * lambdaMax, Hi: 1.1 * lambdaMax, Steps: steps}
}

// Smooth performs Steps Chebyshev iterations on A·x = b, updating x in
// place. zeroGuess skips the initial operator application when x = 0.
// The last step's operator application and residual update are never
// computed: they would feed only the residual of a step that does not
// run, so k steps cost k-1 applies from a zero guess and k otherwise.
func (c *Chebyshev) Smooth(b, x la.Vec, zeroGuess bool) {
	n := c.A.N()
	if len(c.work[0]) != n {
		for i := range c.work {
			c.work[i] = la.NewVec(n)
		}
	}
	r, z, p, ap := c.work[0], c.work[1], c.work[2], c.work[3]
	sp := c.Spans
	d := (c.Hi + c.Lo) / 2
	half := (c.Hi - c.Lo) / 2

	if zeroGuess {
		r.CopySpans(b, sp)
		x.ZeroSpans(sp)
	} else {
		c.A.Apply(x, r)
		r.AYPXSpans(-1, b, sp)
	}
	var alpha, beta float64
	for i := 0; i < c.Steps; i++ {
		c.M.Apply(r, z)
		switch i {
		case 0:
			p.CopySpans(z, sp)
			alpha = 1 / d
		default:
			if i == 1 {
				beta = 0.5 * (half * alpha) * (half * alpha)
			} else {
				beta = (half * alpha / 2) * (half * alpha / 2)
			}
			alpha = 1 / (d - beta/alpha)
			p.AYPXSpans(beta, z, sp)
		}
		x.AXPYSpans(alpha, p, sp)
		if i == c.Steps-1 {
			break
		}
		c.A.Apply(p, ap)
		r.AXPYSpans(-alpha, ap, sp)
	}
}

// Apply lets a Chebyshev smoother act as a Preconditioner (z = smooth(r)
// from a zero initial guess).
func (c *Chebyshev) Apply(r, z la.Vec) { c.Smooth(r, z, true) }

// EstimateLambdaMax estimates the largest eigenvalue of M⁻¹·A by power
// iteration with the M-weighted Rayleigh quotient. A dozen iterations give
// the ~10% accuracy the smoother interval needs (the 1.1 safety factor in
// the target interval absorbs the remaining error). The estimate is
// deterministic: the start vector is a fixed quasi-random sequence, so
// solver behaviour is reproducible run to run.
func EstimateLambdaMax(a Op, m Preconditioner, iters int) float64 {
	n := a.N()
	v := la.NewVec(n)
	// Deterministic pseudo-random start touching all components.
	s := uint64(88172645463325252)
	for i := range v {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		v[i] = float64(int64(s%2000)-1000) / 1000.0
	}
	av := la.NewVec(n)
	z := la.NewVec(n)
	lambda := 1.0
	for it := 0; it < iters; it++ {
		nv := v.Norm2()
		if nv == 0 {
			break
		}
		v.Scale(1 / nv)
		a.Apply(v, av)
		m.Apply(av, z) // z = M⁻¹A v
		lambda = v.Dot(z) / v.Dot(v)
		v.Copy(z)
	}
	if lambda <= 0 {
		lambda = 1
	}
	return lambda
}
