package comm

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
)

// ownerElem returns the lowest element index whose support contains Q2
// grid node (i,j,k).
func ownerElem(d *Decomp, i, j, k int) int {
	lo := func(idx int) int {
		if idx%2 == 1 {
			return (idx - 1) / 2
		}
		e := idx/2 - 1
		if e < 0 {
			e = 0
		}
		return e
	}
	return d.DA.ElemID(lo(i), lo(j), lo(k))
}

// NodeOwner is the element-based statement of node ownership (the DMDA
// convention: a node belongs to the rank owning the lowest-indexed element
// whose support contains it) — the oracle Layout's box arithmetic is held
// against.
func (d *Decomp) NodeOwner(n int) int {
	i, j, k := d.DA.NodeIJK(n)
	return d.RankOfElement(ownerElem(d, i, j, k))
}

// TestDistributedViscousApply: the rank-distributed application with halo
// reduction (Dist.ApplyElements, the apply of the distributed V-cycle's
// matrix-free levels) must agree with the sequential tensor operator on
// every rank's touched nodes, including Dirichlet identity rows and
// subdomain corners shared by up to 8 ranks.
func TestDistributedViscousApply(t *testing.T) {
	da := mesh.New(4, 4, 4, 0, 1, 0, 1, 0, 1)
	da.Deform(func(x, y, z float64) (float64, float64, float64) {
		return x + 0.04*math.Sin(math.Pi*y), y + 0.03*z*x, z
	})
	bc := mesh.NewBC(da)
	bc.FreeSlipBox(da, mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin)
	prob := fem.NewProblem(da, bc)
	prob.SetCoefficientsFunc(func(x, y, z float64) float64 {
		return math.Exp(math.Sin(4*x) * math.Cos(3*y))
	}, nil)

	rng := rand.New(rand.NewSource(1))
	n := da.NVelDOF()
	u := la.NewVec(n)
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	ref := la.NewVec(n)
	fem.NewTensor(prob).Apply(u, ref)

	d, err := NewDecomp(da, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(d.Size())
	results := make([]la.Vec, d.Size())
	var mu sync.Mutex
	w.Run(func(r *Rank) {
		y := la.NewVec(n)
		dist := NewDist(r, NewLayout(d, r.ID), nil)
		if err := dist.ApplyElements(fem.NewTensor(prob), prob.BC.Mask, u, y); err != nil {
			t.Errorf("rank %d: %v", r.ID, err)
		}
		mu.Lock()
		results[r.ID] = y
		mu.Unlock()
	})

	scale := ref.NormInf()
	var nodes [27]int32
	for rid := 0; rid < d.Size(); rid++ {
		touched := map[int32]bool{}
		for _, e := range d.LocalElements(rid) {
			da.ElemNodes(e, &nodes)
			for _, nn := range nodes {
				touched[nn] = true
			}
		}
		for nn := range touched {
			for c := 0; c < 3; c++ {
				dd := 3*int(nn) + c
				if math.Abs(results[rid][dd]-ref[dd]) > 1e-11*scale {
					t.Fatalf("rank %d node %d comp %d: %v, want %v",
						rid, nn, c, results[rid][dd], ref[dd])
				}
			}
		}
	}
}

// TestNodeOwnerConsistency: ownership is well defined — exactly one owner
// per node, and it is a rank whose subdomain contains an element touching
// the node.
func TestNodeOwnerConsistency(t *testing.T) {
	da := mesh.New(4, 4, 4, 0, 1, 0, 1, 0, 1)
	d, err := NewDecomp(da, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var nodes [27]int32
	owners := make(map[int32]map[int]bool)
	for r := 0; r < d.Size(); r++ {
		for _, e := range d.LocalElements(r) {
			da.ElemNodes(e, &nodes)
			for _, n := range nodes {
				if owners[n] == nil {
					owners[n] = map[int]bool{}
				}
				owners[n][r] = true
			}
		}
	}
	for n, rs := range owners {
		o := d.NodeOwner(int(n))
		if !rs[o] {
			t.Fatalf("node %d owned by rank %d which does not touch it (touchers %v)", n, o, rs)
		}
	}
}
