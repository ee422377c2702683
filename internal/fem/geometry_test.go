package fem

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ptatin3d/internal/la"
)

// The functions below are the consumers of the geometry store as they
// were before it existed: each inverts the Jacobian of every quadrature
// point itself through jacobianAt. They are the bitwise reference of
// TestGeometryStoreBitwise.

func refMomentumRHS(p *Problem, b la.Vec) {
	g := p.Gravity
	p.apply(elemPass{coords: true, kern: func(e int, _, xe, be *[81]float64, _ *arena) {
		*be = [81]float64{}
		var jinv [9]float64
		for q := 0; q < NQP; q++ {
			detJ := jacobianAt(xe, q, &jinv)
			w := W3[q] * detJ * p.Rho[NQP*e+q]
			f0, f1, f2 := w*g[0], w*g[1], w*g[2]
			for n := 0; n < 27; n++ {
				nn := N27[q][n]
				be[3*n] += nn * f0
				be[3*n+1] += nn * f1
				be[3*n+2] += nn * f2
			}
		}
	}}, zeroRows, nil, b)
}

func refDiagonal(p *Problem, d la.Vec) {
	p.apply(elemPass{coords: true, kern: func(e int, _, xe, de *[81]float64, _ *arena) {
		eta := p.Eta[NQP*e : NQP*e+NQP]
		*de = [81]float64{}
		var jinv [9]float64
		for q := 0; q < NQP; q++ {
			detJ := jacobianAt(xe, q, &jinv)
			s := eta[q] * W3[q] * detJ
			gq := &G27[q]
			for n := 0; n < 27; n++ {
				g0, g1, g2 := gq[n][0], gq[n][1], gq[n][2]
				px := g0*jinv[0] + g1*jinv[3] + g2*jinv[6]
				py := g0*jinv[1] + g1*jinv[4] + g2*jinv[7]
				pz := g0*jinv[2] + g1*jinv[5] + g2*jinv[8]
				norm := px*px + py*py + pz*pz
				de[3*n] += s * (norm + px*px)
				de[3*n+1] += s * (norm + py*py)
				de[3*n+2] += s * (norm + pz*pz)
			}
		}
	}}, zeroRows, nil, d)
	for r, m := range p.BC.Mask {
		if m {
			d[r] = 1
		}
	}
}

func refResidentStream(p *Problem) []float64 {
	out := make([]float64, 15*NQP*p.DA.NElements())
	for e := 0; e < p.DA.NElements(); e++ {
		var xe [81]float64
		p.gatherCoords(e, &xe)
		var jinv [9]float64
		for q := 0; q < NQP; q++ {
			detJ := jacobianAt(&xe, q, &jinv)
			s := p.Eta[NQP*e+q] * W3[q] * detJ
			c := out[15*(NQP*e+q):]
			idx := 0
			for d := 0; d < 3; d++ {
				for dd := d; dd < 3; dd++ {
					c[idx] = s * (jinv[d*3]*jinv[dd*3] + jinv[d*3+1]*jinv[dd*3+1] + jinv[d*3+2]*jinv[dd*3+2])
					idx++
				}
			}
			sq := math.Sqrt(s)
			for i := 0; i < 9; i++ {
				c[6+i] = sq * jinv[i]
			}
		}
	}
	return out
}

// refElementViscousMatrix is also the element matrix's loop order before
// viscousBatch: quadrature points outermost over the whole 81×81 matrix.
func refElementViscousMatrix(xe *[81]float64, eta []float64, ae []float64) {
	for i := range ae {
		ae[i] = 0
	}
	var jinv [9]float64
	for q := 0; q < NQP; q++ {
		detJ := jacobianAt(xe, q, &jinv)
		s := eta[q] * W3[q] * detJ
		var gn [27][3]float64
		gq := &G27[q]
		for n := 0; n < 27; n++ {
			g0, g1, g2 := gq[n][0], gq[n][1], gq[n][2]
			gn[n][0] = g0*jinv[0] + g1*jinv[3] + g2*jinv[6]
			gn[n][1] = g0*jinv[1] + g1*jinv[4] + g2*jinv[7]
			gn[n][2] = g0*jinv[2] + g1*jinv[5] + g2*jinv[8]
		}
		for i := 0; i < 27; i++ {
			gi := &gn[i]
			for n := 0; n < 27; n++ {
				gnn := &gn[n]
				dot := s * (gi[0]*gnn[0] + gi[1]*gnn[1] + gi[2]*gnn[2])
				base := (3 * i) * 81
				for a := 0; a < 3; a++ {
					row := base + a*81 + 3*n
					ga := s * gnn[a]
					ae[row] += ga * gi[0]
					ae[row+1] += ga * gi[1]
					ae[row+2] += ga * gi[2]
					ae[row+a] += dot
				}
			}
		}
	}
}

// refPhysicalQP interpolates quadrature point q's physical position.
func refPhysicalQP(xe *[81]float64, q int) (x, y, z float64) {
	for n := 0; n < 27; n++ {
		nn := N27[q][n]
		x += nn * xe[3*n]
		y += nn * xe[3*n+1]
		z += nn * xe[3*n+2]
	}
	return
}

func refCouplingGe(p *Problem) []float64 {
	out := make([]float64, 324*p.DA.NElements())
	for e := 0; e < p.DA.NElements(); e++ {
		var xe [81]float64
		p.gatherCoords(e, &xe)
		var ctr, hinv [3]float64
		elemCenterScale(&xe, &ctr, &hinv)
		ge := out[324*e : 324*e+324]
		var jinv [9]float64
		var psi [4]float64
		for q := 0; q < NQP; q++ {
			detJ := jacobianAt(&xe, q, &jinv)
			w := W3[q] * detJ
			x, y, z := refPhysicalQP(&xe, q)
			pressureBasisAt(x, y, z, &ctr, &hinv, &psi)
			gq := &G27[q]
			for n := 0; n < 27; n++ {
				g0, g1, g2 := gq[n][0], gq[n][1], gq[n][2]
				px := g0*jinv[0] + g1*jinv[3] + g2*jinv[6]
				py := g0*jinv[1] + g1*jinv[4] + g2*jinv[7]
				pz := g0*jinv[2] + g1*jinv[5] + g2*jinv[8]
				for m := 0; m < 4; m++ {
					wp := -w * psi[m]
					ge[(3*n)*4+m] += wp * px
					ge[(3*n+1)*4+m] += wp * py
					ge[(3*n+2)*4+m] += wp * pz
				}
			}
		}
	}
	return out
}

func refPressureMassInv(t *testing.T, p *Problem) []float64 {
	out := make([]float64, 16*p.DA.NElements())
	for e := 0; e < p.DA.NElements(); e++ {
		var xe [81]float64
		p.gatherCoords(e, &xe)
		var ctr, hinv [3]float64
		elemCenterScale(&xe, &ctr, &hinv)
		blk := la.NewDense(4, 4)
		var jinv [9]float64
		var psi [4]float64
		for q := 0; q < NQP; q++ {
			detJ := jacobianAt(&xe, q, &jinv)
			w := W3[q] * detJ / p.Eta[NQP*e+q]
			x, y, z := refPhysicalQP(&xe, q)
			pressureBasisAt(x, y, z, &ctr, &hinv, &psi)
			for i := 0; i < 4; i++ {
				for j := 0; j < 4; j++ {
					blk.Add(i, j, w*psi[i]*psi[j])
				}
			}
		}
		lu, err := la.Factor(blk)
		if err != nil {
			t.Fatal(err)
		}
		ei, col := la.NewVec(4), la.NewVec(4)
		for j := 0; j < 4; j++ {
			ei.Zero()
			ei[j] = 1
			lu.Solve(ei, col)
			for i := 0; i < 4; i++ {
				out[16*e+4*i+j] = col[i]
			}
		}
	}
	return out
}

func refStrainRateAtQP(p *Problem, u la.Vec, d6, eII []float64) {
	for e := 0; e < p.DA.NElements(); e++ {
		var ue, xe [81]float64
		em := p.Emap[27*e : 27*e+27]
		for n := 0; n < 27; n++ {
			d := 3 * int(em[n])
			ue[3*n], ue[3*n+1], ue[3*n+2] = u[d], u[d+1], u[d+2]
		}
		p.gatherCoords(e, &xe)
		var ks kernScratch
		ug0, ug1, ug2 := &ks.ug0, &ks.ug1, &ks.ug2
		tensorGrads64(&ue, ug0, ug1, ug2, &ks.kernScratchG)
		var jinv [9]float64
		for q := 0; q < NQP; q++ {
			jacobianAt(&xe, q, &jinv)
			var gp [9]float64
			for a := 0; a < 3; a++ {
				g0, g1, g2 := ug0[q*3+a], ug1[q*3+a], ug2[q*3+a]
				gp[a*3] = g0*jinv[0] + g1*jinv[3] + g2*jinv[6]
				gp[a*3+1] = g0*jinv[1] + g1*jinv[4] + g2*jinv[7]
				gp[a*3+2] = g0*jinv[2] + g1*jinv[5] + g2*jinv[8]
			}
			dxx, dyy, dzz := gp[0], gp[4], gp[8]
			dxy := 0.5 * (gp[1] + gp[3])
			dxz := 0.5 * (gp[2] + gp[6])
			dyz := 0.5 * (gp[5] + gp[7])
			copy(d6[6*(NQP*e+q):], []float64{dxx, dyy, dzz, dxy, dxz, dyz})
			ii := 0.5 * (dxx*dxx + dyy*dyy + dzz*dzz + 2*(dxy*dxy+dxz*dxz+dyz*dyz))
			eII[NQP*e+q] = math.Sqrt(ii)
		}
	}
}

func wantSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d is %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// checkGeometryStore compares every stored jinv/detJ with a fresh
// jacobianAt on the mesh as it is now.
func checkGeometryStore(t *testing.T, what string, p *Problem) {
	t.Helper()
	geo := p.geom()
	for e := 0; e < p.DA.NElements(); e++ {
		var xe [81]float64
		p.gatherCoords(e, &xe)
		for q := 0; q < NQP; q++ {
			var jinv [9]float64
			detJ := jacobianAt(&xe, q, &jinv)
			gotJ, gotD := geomAt(geo, e, q)
			wantSameBits(t, fmt.Sprintf("%s: element %d qp %d", what, e, q), append(gotJ[:], gotD), append(jinv[:], detJ))
		}
	}
}

// TestGeometryStoreBitwise: on a deformed mesh the store holds exactly
// what jacobianAt returns, at 1 and 3 workers; writing DA.Coords and
// nothing else makes the next reader see the moved mesh; and every
// consumer of the store produces the bits of the formula it replaced.
func TestGeometryStoreBitwise(t *testing.T) {
	for _, workers := range []int{1, 3} {
		p := testProblem(t, 4, 3, 2, workers)
		p.Gravity = [3]float64{0.1, -0.3, -1}
		checkGeometryStore(t, fmt.Sprintf("workers=%d", workers), p)

		rng := rand.New(rand.NewSource(7))
		u := randVelocity(rng, p.DA.NVelDOF())
		nq := NQP * p.DA.NElements()
		for _, moved := range []bool{false, true} {
			what := fmt.Sprintf("workers=%d moved=%v", workers, moved)
			if moved {
				// Move the mesh the way the ALE update does: by writing
				// the coordinates, and telling nobody.
				for i := range p.DA.Coords {
					p.DA.Coords[i] += 0.01 * rng.Float64()
				}
			}

			got, want := la.NewVec(p.DA.NVelDOF()), la.NewVec(p.DA.NVelDOF())
			MomentumRHS(p, got)
			refMomentumRHS(p, want)
			wantSameBits(t, what+": MomentumRHS", got, want)
			if moved {
				checkGeometryStore(t, what, p)
			}

			Diagonal(p, got)
			refDiagonal(p, want)
			wantSameBits(t, what+": Diagonal", got, want)

			wantSameBits(t, what+": Resident.Setup", NewResident(p, false).c64, refResidentStream(p))
			wantSameBits(t, what+": Coupling.Setup", p.Coupling().Ge, refCouplingGe(p))
			mp, err := NewPressureMass(p)
			if err != nil {
				t.Fatal(err)
			}
			wantSameBits(t, what+": PressureMass.Setup", mp.inv, refPressureMassInv(t, p))

			geo := p.geom()
			bt := new(viscousBatch)
			ae, aeRef := make([]float64, 81*81), make([]float64, 81*81)
			for e := 0; e < p.DA.NElements(); e++ {
				var xe [81]float64
				p.gatherCoords(e, &xe)
				eta := p.Eta[NQP*e : NQP*e+NQP]
				lane := e % viscousLanes
				bt.load(lane, geo, e, eta)
				bt.matrixGo(&bt.ae, lane)
				for k := range ae {
					ae[k] = bt.ae[k][lane]
				}
				refElementViscousMatrix(&xe, eta, aeRef)
				wantSameBits(t, fmt.Sprintf("%s: element matrix %d", what, e), ae, aeRef)
			}

			d6, eII := make([]float64, 6*nq), make([]float64, nq)
			d6Ref, eIIRef := make([]float64, 6*nq), make([]float64, nq)
			StrainRateAtQP(p, u, d6, eII)
			refStrainRateAtQP(p, u, d6Ref, eIIRef)
			wantSameBits(t, what+": StrainRateAtQP d6", d6, d6Ref)
			wantSameBits(t, what+": StrainRateAtQP eII", eII, eIIRef)
		}
	}
}

// TestGeometryStoreKeptWhileMeshStill: the store and the problem's
// coupling blocks are not rebuilt, and not reallocated, while the
// coordinates stay what they were. A one-ulp move rebuilds both, the
// blocks in place, however many goroutines ask for them first.
func TestGeometryStoreKeptWhileMeshStill(t *testing.T) {
	p := testProblem(t, 3, 2, 2, 2)
	g0, ge0 := p.geom(), p.Coupling().Ge
	g0[0], ge0[0] = math.Pi, math.Pi // a rebuild would overwrite these
	if g1, ge1 := p.geom(), p.Coupling().Ge; &g1[0] != &g0[0] || g1[0] != math.Pi || &ge1[0] != &ge0[0] || ge1[0] != math.Pi {
		t.Fatal("store or coupling blocks rebuilt although the mesh did not move")
	}
	p.DA.Coords[0] = math.Float64frombits(math.Float64bits(p.DA.Coords[0]) + 1)
	cpls := make([]*Coupling, 4)
	var wg sync.WaitGroup
	for i := range cpls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cpls[i] = p.Coupling()
		}()
	}
	wg.Wait()
	if g2 := p.geom(); g2[0] == math.Pi {
		t.Fatal("store kept although a coordinate changed by one ulp")
	}
	for _, c := range cpls {
		if c != cpls[0] || &c.Ge[0] != &ge0[0] || c.Ge[0] == math.Pi {
			t.Fatal("coupling blocks kept, or rebuilt elsewhere than in place, although a coordinate changed by one ulp")
		}
	}
}

// checkElementFrames compares every element's frame with what
// EvalPressure computed per point before the frames (elemCenterScale), and
// the store's column description, or the error in its place, with the
// mesh's own.
func checkElementFrames(t *testing.T, what string, p *Problem) {
	t.Helper()
	c := p.Cursor(nil, nil)
	for e := 0; e < p.DA.NElements(); e++ {
		var xe [81]float64
		p.gatherCoords(e, &xe)
		var ctr, hinv [3]float64
		elemCenterScale(&xe, &ctr, &hinv)
		c.Seek(e)
		wantSameBits(t, fmt.Sprintf("%s: frame of element %d", what, e), c.frame()[:frameStride], append(ctr[:], hinv[:]...))
	}
	cols, err := c.geo.cols, c.geo.colErr
	want, werr := p.DA.Columns()
	if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(cols, want) {
		t.Fatalf("%s: store holds columns %+v (%v), the mesh derives %+v (%v)", what, cols, err, want, werr)
	}
}

// TestElementFrameBitwise: the frames hold the bits the per-point code
// computed, at 1 and 3 workers; they are kept while the mesh is still and
// rebuilt after a write to DA.Coords; and the store is validated when a
// cursor is taken, not when it seeks.
func TestElementFrameBitwise(t *testing.T) {
	for _, workers := range []int{1, 3} {
		p := testProblem(t, 4, 3, 2, workers)
		what := fmt.Sprintf("workers=%d", workers)
		checkElementFrames(t, what, p)

		c := p.Cursor(nil, nil)
		c.Seek(0)
		f0 := c.frame()
		f0[0] = math.Pi // a rebuild would overwrite this
		if c1 := p.Cursor(nil, nil); &c1.geo.frames[0] != &f0[0] || f0[0] != math.Pi {
			t.Fatal("frames rebuilt although the mesh did not move")
		}
		for i := range p.DA.Coords {
			p.DA.Coords[i] += 0.01 * float64(i%7)
		}
		c.Seek(1)
		c.Seek(0)
		if f0[0] != math.Pi {
			t.Fatal("a seek validated the store; only taking a cursor should")
		}
		checkElementFrames(t, what+" moved", p)
	}
}
