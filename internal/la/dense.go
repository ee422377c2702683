package la

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix. It backs small per-element and
// per-aggregate solves (element stiffness blocks, P1disc pressure mass
// blocks, rigid-body-mode QR factors, coarse-grid direct solves).
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewDense returns a zeroed Rows×Cols matrix.
func NewDense(rows, cols int) *Dense {
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the (i,j) entry.
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the (i,j) entry.
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into the (i,j) entry.
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a slice aliasing row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes y = m*x.
func (m *Dense) MulVec(x, y Vec) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("la: MulVec shape mismatch (%dx%d)*%d->%d", m.Rows, m.Cols, len(x), len(y)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, a := range row {
			s += a * x[j]
		}
		y[i] = s
	}
}

// Mul computes c = a*b, allocating c.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic("la: Mul shape mismatch")
	}
	c := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bkj := range brow {
				crow[j] += aik * bkj
			}
		}
	}
	return c
}

// LU holds an LU factorization with partial pivoting of a square matrix.
// It provides the exact subdomain and coarse-level solves used by the
// block-Jacobi and AMG coarse solvers.
type LU struct {
	n   int
	lu  []float64 // packed L (unit diag, below) and U (on/above diag)
	piv []int
}

// Factor computes the LU factorization of the square matrix m with partial
// pivoting. It returns an error if the matrix is singular to working
// precision. m is not modified.
func Factor(m *Dense) (*LU, error) {
	if m.Rows != m.Cols {
		panic("la: Factor requires a square matrix")
	}
	n := m.Rows
	f := &LU{n: n, lu: make([]float64, n*n), piv: make([]int, n)}
	copy(f.lu, m.Data)
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivoting: find the largest entry in column k at/below row k.
		p := k
		pmax := math.Abs(f.lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(f.lu[i*n+k]); a > pmax {
				pmax, p = a, i
			}
		}
		if pmax == 0 {
			return nil, fmt.Errorf("la: singular matrix at pivot %d", k)
		}
		if p != k {
			rk := f.lu[k*n : (k+1)*n]
			rp := f.lu[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		pivv := f.lu[k*n+k]
		for i := k + 1; i < n; i++ {
			lik := f.lu[i*n+k] / pivv
			f.lu[i*n+k] = lik
			if lik == 0 {
				continue
			}
			ri := f.lu[i*n : (i+1)*n]
			rk := f.lu[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				ri[j] -= lik * rk[j]
			}
		}
	}
	return f, nil
}

// Solve computes x such that A*x = b, where A is the factored matrix.
// b and x may alias.
func (f *LU) Solve(b, x Vec) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic("la: LU Solve length mismatch")
	}
	// Apply permutation into x, then forward/back substitute in place.
	tmp := make([]float64, n)
	for i := 0; i < n; i++ {
		tmp[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		ri := f.lu[i*n : i*n+i]
		s := tmp[i]
		for j, l := range ri {
			s -= l * tmp[j]
		}
		tmp[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		ri := f.lu[i*n : (i+1)*n]
		s := tmp[i]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * tmp[j]
		}
		tmp[i] = s / ri[i]
	}
	copy(x, tmp)
}

// Invert3 inverts the 3×3 matrix a (row-major) into inv and returns its
// determinant. It is the hot-path metric-term inversion used at every
// quadrature point, so it is hand-rolled rather than using LU.
func Invert3(a *[9]float64, inv *[9]float64) float64 {
	c00 := a[4]*a[8] - a[5]*a[7]
	c01 := a[5]*a[6] - a[3]*a[8]
	c02 := a[3]*a[7] - a[4]*a[6]
	det := a[0]*c00 + a[1]*c01 + a[2]*c02
	id := 1.0 / det
	inv[0] = c00 * id
	inv[1] = (a[2]*a[7] - a[1]*a[8]) * id
	inv[2] = (a[1]*a[5] - a[2]*a[4]) * id
	inv[3] = c01 * id
	inv[4] = (a[0]*a[8] - a[2]*a[6]) * id
	inv[5] = (a[2]*a[3] - a[0]*a[5]) * id
	inv[6] = c02 * id
	inv[7] = (a[1]*a[6] - a[0]*a[7]) * id
	inv[8] = (a[0]*a[4] - a[1]*a[3]) * id
	return det
}

// QRThin computes a thin (economy) QR factorization of the m×k matrix a
// (m >= k) by modified Gram–Schmidt with reorthogonalization: a = q*r with
// q m×k having orthonormal columns and r k×k upper triangular. Columns of
// a that become numerically zero are replaced by zero columns in q with a
// zero diagonal in r; the caller (smoothed aggregation) treats those as
// dropped modes. a is not modified.
func QRThin(a *Dense) (q, r *Dense) {
	m, k := a.Rows, a.Cols
	q = a.Clone()
	r = NewDense(k, k)
	col := func(d *Dense, j int) []float64 {
		c := make([]float64, d.Rows)
		for i := 0; i < d.Rows; i++ {
			c[i] = d.At(i, j)
		}
		return c
	}
	setcol := func(d *Dense, j int, c []float64) {
		for i := 0; i < d.Rows; i++ {
			d.Set(i, j, c[i])
		}
	}
	for j := 0; j < k; j++ {
		v := col(q, j)
		// Two rounds of MGS for numerical robustness.
		for round := 0; round < 2; round++ {
			for i := 0; i < j; i++ {
				qi := col(q, i)
				var dot float64
				for t := 0; t < m; t++ {
					dot += qi[t] * v[t]
				}
				r.Add(i, j, dot)
				for t := 0; t < m; t++ {
					v[t] -= dot * qi[t]
				}
			}
		}
		var nrm float64
		for t := 0; t < m; t++ {
			nrm += v[t] * v[t]
		}
		nrm = math.Sqrt(nrm)
		if nrm < 1e-13 {
			// Degenerate column: drop it.
			for t := 0; t < m; t++ {
				v[t] = 0
			}
			r.Set(j, j, 0)
		} else {
			r.Set(j, j, nrm)
			inrm := 1 / nrm
			for t := 0; t < m; t++ {
				v[t] *= inrm
			}
		}
		setcol(q, j, v)
	}
	return q, r
}
