package comm

import (
	"fmt"
	"sync"
	"testing"
	"time"

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
			v, err := dist.AllReduceSum(0.1 * float64(r.ID+1))
			if err != nil {
				t.Errorf("rank %d: %v", r.ID, err)
			}
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

// TestGatherSolveBroadcast: the per-rank owned slices of b are assembled
// on rank 0, its "solve" doubles them into x, and every rank receives the
// full solution. A client counts its one packet to rank 0, and rank 0
// one solution packet per client.
func TestGatherSolveBroadcast(t *testing.T) {
	da := mesh.New(4, 4, 2, 0, 1, 0, 1, 0, 1)
	d, err := NewDecomp(da, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := 3 * da.NNodes()
	w := NewWorld(d.Size())
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
		err := dist.GatherSolveBroadcast(b, x, func() {
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
		want := int64(1)
		if rid == 0 {
			want = int64(d.Size() - 1)
		}
		if got := reg.Root().Child(fmt.Sprintf("rank%d", rid)).Counter("halo_msgs").Value(); got != want {
			t.Errorf("rank %d: halo_msgs = %d, want %d", rid, got, want)
		}
	}
}

// TestRingsOutlastSlowReceiver runs rounds of ReduceBroadcast, two
// back-to-back Broadcasts and the coarse gather to rank 0 on a 2×2×1
// world, one client slowed, and checks every value each round received.
// Each Dist recycles its halo packets round rings of haloSlots and its
// gather packets in place, so a sender that rewrote a packet before its
// receiver had read it would show here as a wrong value, or under -race
// as a race.
func TestRingsOutlastSlowReceiver(t *testing.T) {
	const rounds, slow = 200, 2
	da := mesh.New(4, 4, 2, 0, 1, 0, 1, 0, 1)
	d, err := NewDecomp(da, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := 3 * da.NNodes()
	support := make([]float64, da.NNodes())
	var nodes [27]int32
	for e := 0; e < da.NElements(); e++ {
		da.ElemNodes(e, &nodes)
		for _, node := range nodes {
			support[node]++
		}
	}
	pause := func(r *Rank) {
		if r.ID == slow {
			time.Sleep(50 * time.Microsecond)
		}
	}
	NewWorld(d.Size()).Run(func(r *Rank) {
		l := NewLayout(d, r.ID)
		dist := NewDist(r, l, nil)
		y, b, x := la.NewVec(n), la.NewVec(n), la.NewVec(n)
		var nodes [27]int32
		fail := func(what string, round int, i int, got, want float64) {
			t.Errorf("rank %d round %d %s: entry %d = %g, want %g", r.ID, round, what, i, got, want)
		}
		for round := 0; round < rounds; round++ {
			// Every element adds round+1 to its nodes: each node of the
			// rank's extended box ends with its support times round+1.
			c := float64(round + 1)
			clear(y)
			add := func(elems []int) {
				for _, e := range elems {
					da.ElemNodes(e, &nodes)
					for _, node := range nodes {
						y[3*node] += c
						y[3*node+1] += c
						y[3*node+2] += c
					}
				}
			}
			add(l.Boundary)
			if err := dist.ReduceBroadcast(y, func() { pause(r); add(l.Interior) }, nil); err != nil {
				t.Errorf("rank %d round %d: %v", r.ID, round, err)
				return
			}
			for _, node := range l.OwnedNodes() {
				if want := support[node] * c; y[3*node] != want {
					fail("reduce", round, 3*int(node), y[3*node], want)
					return
				}
			}
			for _, ghosts := range l.Ghost {
				for _, g := range ghosts {
					if want := support[g] * c; y[3*g+2] != want {
						fail("reduce ghost", round, 3*int(g)+2, y[3*g+2], want)
						return
					}
				}
			}
			// Two owner broadcasts in a row, each of fresh owner values.
			for k := 0; k < 2; k++ {
				v := float64(2*round + k)
				for _, node := range l.OwnedNodes() {
					y[3*node], y[3*node+1], y[3*node+2] = v, float64(node), -v
				}
				pause(r)
				if err := dist.Broadcast(y); err != nil {
					t.Errorf("rank %d round %d: %v", r.ID, round, err)
					return
				}
				for _, ghosts := range l.Ghost {
					for _, g := range ghosts {
						if y[3*g] != v || y[3*g+1] != float64(g) || y[3*g+2] != -v {
							fail("broadcast", round, 3*int(g), y[3*g], v)
							return
						}
					}
				}
			}
			// Rank 0 gathers b, solves x = 2b + round and sends x to
			// every rank.
			off := 0.5 * float64(round)
			for _, node := range l.OwnedNodes() {
				for k := int32(0); k < 3; k++ {
					b[3*node+k] = float64(3*node+k) + off
				}
			}
			pause(r)
			err := dist.GatherSolveBroadcast(b, x, func() {
				pause(r)
				for i := range x {
					x[i] = 2*b[i] + float64(round)
				}
			}, nil)
			if err != nil {
				t.Errorf("rank %d round %d: %v", r.ID, round, err)
				return
			}
			for i := range x {
				if want := 2*(float64(i)+off) + float64(round); x[i] != want {
					fail("coarse", round, i, x[i], want)
					return
				}
			}
		}
	})
}
