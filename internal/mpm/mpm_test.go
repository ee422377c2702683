package mpm

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"ptatin3d/internal/comm"
	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/telemetry"
)

func flatProblem(m int) *fem.Problem {
	da := mesh.New(m, m, m, 0, 1, 0, 1, 0, 1)
	return fem.NewProblem(da, nil)
}

func deformedProblem(m int) *fem.Problem {
	da := mesh.New(m, m, m, 0, 1, 0, 1, 0, 1)
	da.Deform(func(x, y, z float64) (float64, float64, float64) {
		return x + 0.05*math.Sin(math.Pi*y)*math.Sin(math.Pi*z),
			y + 0.04*math.Sin(math.Pi*x),
			z + 0.03*x*y
	})
	return fem.NewProblem(da, nil)
}

func TestLatticeInit(t *testing.T) {
	p := flatProblem(3)
	pts := NewLattice(p, 3, func(x, y, z float64) int32 {
		if z > 0.5 {
			return 1
		}
		return 0
	})
	if pts.Len() != 27*27 {
		t.Fatalf("points = %d, want %d", pts.Len(), 27*27)
	}
	counts := CountPerElement(p, pts)
	for e, c := range counts {
		if c != 27 {
			t.Fatalf("element %d has %d points", e, c)
		}
	}
	// Lithology split along z.
	var top, bottom int
	for i := 0; i < pts.Len(); i++ {
		if pts.Litho[i] == 1 {
			top++
		} else {
			bottom++
		}
	}
	if top == 0 || bottom == 0 {
		t.Fatal("classification did not split lithologies")
	}
}

func TestLocateOutsideDomain(t *testing.T) {
	p := flatProblem(2)
	c := p.Cursor(nil, nil)
	if _, _, _, _, ok := Locate(&c, 1.5, 0.5, 0.5); ok {
		t.Fatal("located a point outside the domain")
	}
	if _, _, _, _, ok := Locate(&c, 0.5, -0.2, 0.5); ok {
		t.Fatal("located a point below the domain")
	}
}

// TestProjectionReproducesLinear: with a dense lattice, projecting a
// linear function of position is (nearly) exact at interior vertices.
func TestProjectionReproducesLinear(t *testing.T) {
	p := flatProblem(3)
	pts := NewLattice(p, 4, nil)
	f := func(x, y, z float64) float64 { return 2 + 3*x - y + 0.5*z }
	vals := NewProjector(p).Project(pts, func(i int) float64 {
		return f(pts.X[i], pts.Y[i], pts.Z[i])
	}, nil)
	da := p.DA
	for k := 0; k <= da.Mz; k++ {
		for j := 0; j <= da.My; j++ {
			for i := 0; i <= da.Mx; i++ {
				x, y, z := da.NodeCoords(da.VertexNode(i, j, k))
				got := vals[da.VertexID(i, j, k)]
				want := f(x, y, z)
				// Interior vertices have symmetric lattice support, so the
				// weighted average of a linear field is exact; boundary
				// vertices see one-sided support and carry an O(h) bias.
				tol := 0.75
				if i > 0 && i < da.Mx && j > 0 && j < da.My && k > 0 && k < da.Mz {
					tol = 1e-10
				}
				if math.Abs(got-want) > tol {
					t.Fatalf("vertex (%d,%d,%d): %v, want %v", i, j, k, got, want)
				}
			}
		}
	}
}

// TestProjectionConstantExact: a constant property projects exactly
// everywhere (Eq. 12 is a weighted average).
func TestProjectionConstantExact(t *testing.T) {
	p := deformedProblem(3)
	pts := NewLattice(p, 2, nil)
	vals := NewProjector(p).Project(pts, func(i int) float64 { return 7.5 }, nil)
	for v, g := range vals {
		if math.Abs(g-7.5) > 1e-12 {
			t.Fatalf("vertex %d: %v", v, g)
		}
	}
}

// TestProjectionEmptyFallback: vertices with no points in support use the
// fallback field or the neighbour patch.
func TestProjectionEmptyFallback(t *testing.T) {
	p := flatProblem(3)
	pts := &Points{} // no points at all
	fb := make([]float64, p.DA.NVertices())
	for i := range fb {
		fb[i] = 42
	}
	vals := NewProjector(p).Project(pts, func(i int) float64 { return 0 }, fb)
	for _, v := range vals {
		if v != 42 {
			t.Fatalf("fallback not used: %v", v)
		}
	}
	// Single point; everything else patched by sweeps.
	pts = &Points{}
	idx := pts.Append(0.5, 0.5, 0.5, 0, 0)
	c := p.Cursor(nil, nil)
	e, xi, et, ze, ok := Locate(&c, 0.5, 0.5, 0.5)
	if !ok {
		t.Fatal("centre not located")
	}
	pts.Elem[idx] = int32(e)
	pts.Xi[idx], pts.Et[idx], pts.Ze[idx] = xi, et, ze
	vals = NewProjector(p).Project(pts, func(i int) float64 { return 3 }, nil)
	for v, g := range vals {
		if g != 3 {
			t.Fatalf("patch sweep failed at vertex %d: %v", v, g)
		}
	}
}

// TestAdvectUniformFlow: uniform velocity translates points exactly
// (RK2 is exact for constant fields).
func TestAdvectUniformFlow(t *testing.T) {
	p := flatProblem(4)
	pts := NewLattice(p, 2, nil)
	u := la.NewVec(p.DA.NVelDOF())
	for n := 0; n < p.DA.NNodes(); n++ {
		u[3*n] = 0.25
		u[3*n+1] = -0.125
	}
	x0 := append([]float64(nil), pts.X...)
	y0 := append([]float64(nil), pts.Y...)
	lost := AdvectRK2(p, u, 0.5, pts, 2)
	for i := 0; i < pts.Len(); i++ {
		// Points that stayed in the domain moved by exactly dt·v.
		if pts.Elem[i] < 0 {
			continue
		}
		if math.Abs(pts.X[i]-(x0[i]+0.125)) > 1e-12 || math.Abs(pts.Y[i]-(y0[i]-0.0625)) > 1e-12 {
			t.Fatalf("point %d at (%v,%v)", i, pts.X[i], pts.Y[i])
		}
	}
	// Points near the x-max boundary flowed out.
	if len(lost) == 0 {
		t.Fatal("expected outflow points")
	}
}

// TestAdvectRotationPreservesRadius: RK2 in a rigid rotation keeps the
// radius to O(dt³) per step.
func TestAdvectRotationPreservesRadius(t *testing.T) {
	p := flatProblem(6)
	// Rotation about the domain centre in the x-y plane.
	u := la.NewVec(p.DA.NVelDOF())
	for n := 0; n < p.DA.NNodes(); n++ {
		x, y, _ := p.DA.NodeCoords(n)
		u[3*n] = -(y - 0.5)
		u[3*n+1] = x - 0.5
	}
	pts := &Points{}
	idx := pts.Append(0.75, 0.5, 0.5, 0, 0)
	c := p.Cursor(nil, nil)
	e, xi, et, ze, ok := Locate(&c, 0.75, 0.5, 0.5)
	if !ok {
		t.Fatal("seed not located")
	}
	pts.Elem[idx] = int32(e)
	pts.Xi[idx], pts.Et[idx], pts.Ze[idx] = xi, et, ze
	dt := 0.05
	for step := 0; step < 40; step++ { // ~1/3 revolution
		if lost := AdvectRK2(p, u, dt, pts, 1); len(lost) > 0 {
			t.Fatalf("point lost at step %d", step)
		}
	}
	r := math.Hypot(pts.X[0]-0.5, pts.Y[0]-0.5)
	if math.Abs(r-0.25) > 2e-3 {
		t.Fatalf("radius drifted to %v (want 0.25)", r)
	}
	if math.Abs(pts.Z[0]-0.5) > 1e-12 {
		t.Fatal("z drifted in planar rotation")
	}
}

// TestMigrateProtocol: points advected across subdomain boundaries are
// adopted by the owning rank; every surviving point ends up exactly once
// on the correct rank; outflow points disappear.
func TestMigrateProtocol(t *testing.T) {
	p := flatProblem(4)
	d, err := comm.NewDecomp(p.DA, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := comm.NewWorld(d.Size())
	// Uniform +x flow pushes points across the x-split (and out at xmax).
	u := la.NewVec(p.DA.NVelDOF())
	for n := 0; n < p.DA.NNodes(); n++ {
		u[3*n] = 0.3
	}
	type rankState struct {
		pts *Points
		st  MigrateStats
		tot int
	}
	states := make([]rankState, d.Size())
	var totalBefore int
	reg := telemetry.New()
	w.Run(func(r *comm.Rank) {
		// Each rank seeds points only in its own elements.
		all := NewLattice(p, 2, nil)
		local := &Points{}
		for i := 0; i < all.Len(); i++ {
			if d.RankOfElement(int(all.Elem[i])) == r.ID {
				idx := local.Append(all.X[i], all.Y[i], all.Z[i], all.Litho[i], all.Plastic[i])
				local.Elem[idx] = all.Elem[i]
				local.Xi[idx], local.Et[idx], local.Ze[idx] = all.Xi[i], all.Et[i], all.Ze[i]
			}
		}
		n0 := local.Len()
		AdvectRK2(p, u, 0.5, local, 1)
		sc := reg.Root().Child("mpm").Child(fmt.Sprintf("rank%d", r.ID))
		st, err := Migrate(r, d, p, local, sc)
		if err != nil {
			t.Errorf("rank %d: %v", r.ID, err)
		}
		states[r.ID] = rankState{pts: local, st: st, tot: n0}
	})
	for _, s := range states {
		totalBefore += s.tot
	}
	// Every surviving point is on its owning rank.
	totalAfter, deleted, sent, received := 0, 0, 0, 0
	for rid, s := range states {
		totalAfter += s.pts.Len()
		deleted += s.st.Deleted
		sent += s.st.Sent
		received += s.st.Received
		for i := 0; i < s.pts.Len(); i++ {
			if d.RankOfElement(int(s.pts.Elem[i])) != rid {
				t.Fatalf("rank %d holds foreign point in element %d", rid, s.pts.Elem[i])
			}
		}
	}
	if sent == 0 || received == 0 {
		t.Fatalf("no migration happened: sent %d received %d", sent, received)
	}
	if deleted == 0 {
		t.Fatal("expected outflow deletions at xmax")
	}
	if totalAfter+deleted+(sent-received) != totalBefore {
		t.Fatalf("point accounting: before %d, after %d, deleted %d, sent %d, recv %d",
			totalBefore, totalAfter, deleted, sent, received)
	}
	// The per-rank telemetry counters must agree with the returned stats.
	var telSent, telRecv, telDel int64
	for rid := range states {
		sc := reg.Root().Child("mpm").Child(fmt.Sprintf("rank%d", rid))
		telSent += sc.Counter("sent").Value()
		telRecv += sc.Counter("received").Value()
		telDel += sc.Counter("deleted").Value()
		if sc.Counter("migrations").Value() != 1 {
			t.Fatalf("rank %d migrations counter = %d", rid, sc.Counter("migrations").Value())
		}
	}
	if int(telSent) != sent || int(telRecv) != received || int(telDel) != deleted {
		t.Fatalf("telemetry disagrees: sent %d/%d recv %d/%d del %d/%d",
			telSent, sent, telRecv, received, telDel, deleted)
	}
}

// TestMigrateExchangeFailure: on a 2×1×1 world whose rank 1 never
// migrates, rank 0's shipment is left waiting when the world goes quiet.
// Migrate must return a wrapped *comm.ExchangeError naming rank 1 instead
// of hanging, and count the failure.
func TestMigrateExchangeFailure(t *testing.T) {
	p := flatProblem(4)
	d, err := comm.NewDecomp(p.DA, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	sc := reg.Root().Child("mpm").Child("rank0")
	var migErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		comm.NewWorld(d.Size()).Run(func(r *comm.Rank) {
			if r.ID == 0 {
				_, migErr = Migrate(r, d, p, NewLattice(p, 2, nil), sc)
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a migration with a silent neighbour deadlocked instead of failing")
	}
	var xe *comm.ExchangeError
	if !errors.As(migErr, &xe) || !slices.Equal(xe.Missing, []int{1}) {
		t.Fatalf("got %v, want a wrapped *comm.ExchangeError missing [1]", migErr)
	}
	if n := sc.Counter("migrate_failures").Value(); n != 1 {
		t.Errorf("migrate_failures = %d, want 1", n)
	}
}

func TestRemoveSwap(t *testing.T) {
	pts := &Points{}
	pts.Append(1, 1, 1, 10, 0.1)
	pts.Append(2, 2, 2, 20, 0.2)
	pts.Append(3, 3, 3, 30, 0.3)
	pts.RemoveSwap(0)
	if pts.Len() != 2 {
		t.Fatalf("len = %d", pts.Len())
	}
	if pts.X[0] != 3 || pts.Litho[0] != 30 || pts.Plastic[0] != 0.3 {
		t.Fatalf("swap incorrect: %+v", pts)
	}
}

// TestPopulationControl: starved elements get re-seeded with points that
// inherit nearby composition and history.
func TestPopulationControl(t *testing.T) {
	p := flatProblem(3)
	pts := NewLattice(p, 2, func(x, y, z float64) int32 {
		if x > 0.5 {
			return 1
		}
		return 0
	})
	for i := range pts.Plastic {
		pts.Plastic[i] = 0.7
	}
	// Drain element (0,0,0) completely.
	target := int32(p.DA.ElemID(0, 0, 0))
	for i := pts.Len() - 1; i >= 0; i-- {
		if pts.Elem[i] == target {
			pts.RemoveSwap(i)
		}
	}
	if CountPerElement(p, pts)[target] != 0 {
		t.Fatal("setup failed to drain element")
	}
	injected := EnsureMinPerElement(p, pts, 4, 2)
	if injected != 8 {
		t.Fatalf("injected %d points, want 8", injected)
	}
	counts := CountPerElement(p, pts)
	if counts[target] != 8 {
		t.Fatalf("element has %d points after control", counts[target])
	}
	// Injected points inherit composition and history from neighbours:
	// element (0,0,0) is in the x<0.5 half, so lithology 0, plastic 0.7.
	for i := 0; i < pts.Len(); i++ {
		if pts.Elem[i] != target {
			continue
		}
		if pts.Litho[i] != 0 {
			t.Fatalf("injected point has lithology %d", pts.Litho[i])
		}
		if pts.Plastic[i] != 0.7 {
			t.Fatalf("injected point has plastic %v", pts.Plastic[i])
		}
	}
	// A healthy population is untouched.
	if EnsureMinPerElement(p, pts, 4, 2) != 0 {
		t.Fatal("control injected into healthy elements")
	}
}
