package model

import (
	"bufio"
	"fmt"
	"os"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/mpm"
)

// WriteVTK writes the mesh, velocity, pressure (element constant mode)
// and the quadrature-averaged viscosity/density to a legacy-format VTK
// structured-grid file — loadable in ParaView for the Figure 1/Figure 3
// visualizations.
func (m *Model) WriteVTK(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	defer w.Flush()

	da := m.Prob.DA
	nn := da.NNodes()
	fmt.Fprintln(w, "# vtk DataFile Version 3.0")
	fmt.Fprintln(w, "ptatin3d output")
	fmt.Fprintln(w, "ASCII")
	fmt.Fprintln(w, "DATASET STRUCTURED_GRID")
	fmt.Fprintf(w, "DIMENSIONS %d %d %d\n", da.NPx, da.NPy, da.NPz)
	fmt.Fprintf(w, "POINTS %d double\n", nn)
	for n := 0; n < nn; n++ {
		fmt.Fprintf(w, "%g %g %g\n", da.Coords[3*n], da.Coords[3*n+1], da.Coords[3*n+2])
	}
	fmt.Fprintf(w, "POINT_DATA %d\n", nn)
	if len(m.X) >= da.NVelDOF() {
		fmt.Fprintln(w, "VECTORS velocity double")
		u := m.Velocity()
		for n := 0; n < nn; n++ {
			fmt.Fprintf(w, "%g %g %g\n", u[3*n], u[3*n+1], u[3*n+2])
		}
	}
	fmt.Fprintf(w, "CELL_DATA %d\n", (da.NPx-1)*(da.NPy-1)*(da.NPz-1))
	writeCellScalar(w, m, "pressure", func(e int) float64 {
		if len(m.X) > da.NVelDOF() {
			return m.Pressure()[4*e]
		}
		return 0
	})
	writeCellScalar(w, m, "viscosity", func(e int) float64 {
		var s float64
		for q := 0; q < fem.NQP; q++ {
			s += m.Prob.Eta[fem.NQP*e+q]
		}
		return s / fem.NQP
	})
	writeCellScalar(w, m, "density", func(e int) float64 {
		var s float64
		for q := 0; q < fem.NQP; q++ {
			s += m.Prob.Rho[fem.NQP*e+q]
		}
		return s / fem.NQP
	})
	return w.Flush()
}

func writeCellScalar(w *bufio.Writer, m *Model, name string, f func(e int) float64) {
	// Cell data on the VTK structured grid is defined per node-grid cell;
	// map each node-grid cell to its containing Q2 element (2× finer).
	da := m.Prob.DA
	fmt.Fprintf(w, "SCALARS %s double 1\nLOOKUP_TABLE default\n", name)
	for ck := 0; ck < da.NPz-1; ck++ {
		for cj := 0; cj < da.NPy-1; cj++ {
			for ci := 0; ci < da.NPx-1; ci++ {
				e := da.ElemID(ci/2, cj/2, ck/2)
				fmt.Fprintf(w, "%g\n", f(e))
			}
		}
	}
}

// WritePointsVTK writes the material points with lithology and plastic
// strain as VTK POLYDATA.
func (m *Model) WritePointsVTK(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	defer w.Flush()
	pts := m.Points
	n := pts.Len()
	fmt.Fprintln(w, "# vtk DataFile Version 3.0")
	fmt.Fprintln(w, "ptatin3d material points")
	fmt.Fprintln(w, "ASCII")
	fmt.Fprintln(w, "DATASET POLYDATA")
	fmt.Fprintf(w, "POINTS %d double\n", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%g %g %g\n", pts.X[i], pts.Y[i], pts.Z[i])
	}
	fmt.Fprintf(w, "POINT_DATA %d\n", n)
	fmt.Fprintln(w, "SCALARS lithology int 1\nLOOKUP_TABLE default")
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%d\n", pts.Litho[i])
	}
	fmt.Fprintln(w, "SCALARS plastic_strain double 1\nLOOKUP_TABLE default")
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%g\n", pts.Plastic[i])
	}
	return w.Flush()
}

// Streamline integrates the steady velocity field from the given seed by
// RK4 with step h, up to maxSteps, returning the polyline. Integration
// stops when the trajectory leaves the domain. This generates the
// Figure-1 streamlines.
func (m *Model) Streamline(x0, y0, z0, h float64, maxSteps int) [][3]float64 {
	u := m.Velocity()
	var line [][3]float64
	x, y, z := x0, y0, z0
	eGuess := -1
	c := m.Prob.Cursor(u, nil)
	velAt := func(px, py, pz float64) (vx, vy, vz float64, ok bool) {
		e, xi, et, ze, found := mpm.Locate(&c, px, py, pz, eGuess)
		if !found {
			return 0, 0, 0, false
		}
		eGuess = e
		vx, vy, vz = mpm.VelocityAt(&c, xi, et, ze)
		return vx, vy, vz, true
	}
	for s := 0; s < maxSteps; s++ {
		line = append(line, [3]float64{x, y, z})
		k1x, k1y, k1z, ok := velAt(x, y, z)
		if !ok {
			break
		}
		k2x, k2y, k2z, ok := velAt(x+0.5*h*k1x, y+0.5*h*k1y, z+0.5*h*k1z)
		if !ok {
			break
		}
		k3x, k3y, k3z, ok := velAt(x+0.5*h*k2x, y+0.5*h*k2y, z+0.5*h*k2z)
		if !ok {
			break
		}
		k4x, k4y, k4z, ok := velAt(x+h*k3x, y+h*k3y, z+h*k3z)
		if !ok {
			break
		}
		x += h / 6 * (k1x + 2*k2x + 2*k3x + k4x)
		y += h / 6 * (k1y + 2*k2y + 2*k3y + k4y)
		z += h / 6 * (k1z + 2*k2z + 2*k3z + k4z)
	}
	return line
}

// WriteStreamlinesVTK traces one streamline per seed and writes them as
// VTK POLYDATA lines.
func (m *Model) WriteStreamlinesVTK(path string, seeds [][3]float64, h float64, maxSteps int) error {
	var lines [][][3]float64
	total := 0
	for _, s := range seeds {
		l := m.Streamline(s[0], s[1], s[2], h, maxSteps)
		if len(l) > 1 {
			lines = append(lines, l)
			total += len(l)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	defer w.Flush()
	fmt.Fprintln(w, "# vtk DataFile Version 3.0")
	fmt.Fprintln(w, "ptatin3d streamlines")
	fmt.Fprintln(w, "ASCII")
	fmt.Fprintln(w, "DATASET POLYDATA")
	fmt.Fprintf(w, "POINTS %d double\n", total)
	for _, l := range lines {
		for _, p := range l {
			fmt.Fprintf(w, "%g %g %g\n", p[0], p[1], p[2])
		}
	}
	size := 0
	for _, l := range lines {
		size += 1 + len(l)
	}
	fmt.Fprintf(w, "LINES %d %d\n", len(lines), size)
	off := 0
	for _, l := range lines {
		fmt.Fprintf(w, "%d", len(l))
		for i := range l {
			fmt.Fprintf(w, " %d", off+i)
		}
		fmt.Fprintln(w)
		off += len(l)
	}
	return w.Flush()
}
