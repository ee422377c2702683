package comm

import (
	"fmt"
	"sync"
	"testing"

	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/telemetry"
)

// TestDistReduceBroadcast drives the owner-reduce/broadcast halo
// exchange with an additive "apply" whose exact result is known: every
// element adds 1 to each of its 27 nodes, so after the reduction every
// node must hold the number of elements supporting it — on owned and
// ghost copies alike. Boundary elements are applied before the exchange
// starts, interior elements inside the overlap window, exactly like the
// distributed operator.
func TestDistReduceBroadcast(t *testing.T) {
	da := mesh.New(4, 4, 2, 0, 1, 0, 1, 0, 1)
	d, err := NewDecomp(da, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	support1D := func(idx, m int) float64 {
		if idx%2 == 1 {
			return 1
		}
		if idx == 0 || idx == 2*m {
			return 1
		}
		return 2
	}
	w := NewWorld(d.Size())
	reg := telemetry.New()
	var mu sync.Mutex
	vecs := make([]la.Vec, d.Size())
	w.Run(func(r *Rank) {
		l := NewLayout(d, r.ID)
		mu.Lock()
		sc := reg.Root().Child("rank").Child(string(rune('0' + r.ID)))
		mu.Unlock()
		dist := NewDist(r, l, sc)
		y := la.NewVec(3 * da.NNodes())
		addElems := func(elems []int) {
			var nodes [27]int32
			for _, e := range elems {
				da.ElemNodes(e, &nodes)
				for _, n := range nodes {
					y[3*n]++
					y[3*n+1]++
					y[3*n+2]++
				}
			}
		}
		addElems(l.Boundary)
		if err := dist.ReduceBroadcast(y, func() { addElems(l.Interior) }, nil); err != nil {
			t.Errorf("rank %d: %v", r.ID, err)
			return
		}
		mu.Lock()
		vecs[r.ID] = y
		mu.Unlock()
	})
	for rid := 0; rid < d.Size(); rid++ {
		l := NewLayout(d, rid)
		y := vecs[rid]
		b := l.Ext
		for k := b.Lo[2]; k < b.Hi[2]; k++ {
			for j := b.Lo[1]; j < b.Hi[1]; j++ {
				for i := b.Lo[0]; i < b.Hi[0]; i++ {
					n := da.NodeID(i, j, k)
					want := support1D(i, da.Mx) * support1D(j, da.My) * support1D(k, da.Mz)
					for c := 0; c < 3; c++ {
						if y[3*n+c] != want {
							t.Fatalf("rank %d node (%d,%d,%d) dof %d: got %g want %g",
								rid, i, j, k, c, y[3*n+c], want)
						}
					}
				}
			}
		}
	}
	// The exchange must have been counted.
	var msgs int64
	for rid := 0; rid < d.Size(); rid++ {
		msgs += reg.Root().Child("rank").Child(string(rune('0' + rid))).Counter("halo_msgs").Value()
	}
	if msgs == 0 {
		t.Fatal("no halo messages counted")
	}
}

// TestDistAllReduceSum: the rank-ordered reduction must return the
// bit-identical global sum on every rank, deterministically.
func TestDistAllReduceSum(t *testing.T) {
	da := mesh.New(4, 2, 2, 0, 1, 0, 1, 0, 1)
	d, err := NewDecomp(da, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ref float64
	for trial := 0; trial < 5; trial++ {
		w := NewWorld(d.Size())
		got := make([]float64, d.Size())
		var mu sync.Mutex
		w.Run(func(r *Rank) {
			dist := NewDist(r, NewLayout(d, r.ID), nil)
			v := dist.AllReduceSum(0.1 * float64(r.ID+1))
			mu.Lock()
			got[r.ID] = v
			mu.Unlock()
		})
		for rid := 1; rid < d.Size(); rid++ {
			if got[rid] != got[0] {
				t.Fatalf("trial %d: rank %d saw %v, rank 0 saw %v", trial, rid, got[rid], got[0])
			}
		}
		if trial == 0 {
			ref = got[0]
		} else if got[0] != ref {
			t.Fatalf("trial %d: sum %v differs from first trial %v (nondeterministic order)", trial, got[0], ref)
		}
	}
}

// fabricOneNs prices every message and allreduce at one modeled nanosecond.
type fabricOneNs struct{}

func (fabricOneNs) MsgNs(int) int64            { return 1 }
func (fabricOneNs) AllReduceNs(int, int) int64 { return 1 }

// TestGatherSolveBroadcast: on the one-root layout (all to rank 0) the
// per-rank owned slices of b are assembled on rank 0, the root "solve"
// doubles them into x, and every rank receives the full solution. With a
// fabric model installed every rank's gather or broadcast is charged to
// fabric_coarse_ns (the all-to-rank-0 gather used to charge nothing).
func TestGatherSolveBroadcast(t *testing.T) {
	da := mesh.New(4, 4, 2, 0, 1, 0, 1, 0, 1)
	d, err := NewDecomp(da, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := 3 * da.NNodes()
	w := NewWorld(d.Size())
	w.SetFabric(fabricOneNs{})
	reg := telemetry.New()
	var mu sync.Mutex
	vecs := make([]la.Vec, d.Size())
	w.Run(func(r *Rank) {
		l := NewLayout(d, r.ID)
		dist := NewDist(r, l, reg.Root().Child(fmt.Sprintf("rank%d", r.ID)))
		b := la.NewVec(n)
		for _, node := range l.OwnedNodes() {
			for c := 0; c < 3; c++ {
				b[3*node+int32(c)] = float64(3*node + int32(c))
			}
		}
		x := la.NewVec(n)
		err := dist.AggGatherSolveBroadcast(&Agg{Size: d.Size(), Roots: 1}, b, x, func() {
			for i := range x {
				x[i] = 2 * b[i]
			}
		}, nil)
		if err != nil {
			t.Errorf("rank %d: %v", r.ID, err)
			return
		}
		mu.Lock()
		vecs[r.ID] = x
		mu.Unlock()
	})
	for rid := 0; rid < d.Size(); rid++ {
		for i := 0; i < n; i++ {
			if vecs[rid][i] != 2*float64(i) {
				t.Fatalf("rank %d x[%d] = %g, want %g", rid, i, vecs[rid][i], 2*float64(i))
			}
		}
		// One charge each: a client's gather packet, the root's broadcast.
		if got := reg.Root().Child(fmt.Sprintf("rank%d", rid)).Counter("fabric_coarse_ns").Value(); got != 1 {
			t.Errorf("rank %d: fabric_coarse_ns = %d, want 1", rid, got)
		}
	}
}
