package comm

import (
	"sync/atomic"
	"testing"

	"ptatin3d/internal/mesh"
)

func TestWorldSendRecv(t *testing.T) {
	w := NewWorld(4)
	var sum int64
	w.Run(func(r *Rank) {
		next := (r.ID + 1) % 4
		prev := (r.ID + 3) % 4
		r.Send(next, r.ID*10)
		v := r.recv(prev)
		atomic.AddInt64(&sum, int64(v.(int)))
	})
	if sum != 60 {
		t.Fatalf("ring sum = %d, want 60", sum)
	}
}

func TestDecompPartition(t *testing.T) {
	da := mesh.New(8, 6, 4, 0, 1, 0, 1, 0, 1)
	d, err := NewDecomp(da, 2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 12 {
		t.Fatalf("size = %d", d.Size())
	}
	// Every element is owned by exactly one rank, consistent with
	// LocalElements.
	owner := make([]int, da.NElements())
	for i := range owner {
		owner[i] = -1
	}
	for r := 0; r < d.Size(); r++ {
		for _, e := range d.LocalElements(r) {
			if owner[e] != -1 {
				t.Fatalf("element %d owned twice", e)
			}
			owner[e] = r
		}
	}
	for e, o := range owner {
		if o == -1 {
			t.Fatalf("element %d unowned", e)
		}
		if d.RankOfElement(e) != o {
			t.Fatalf("RankOfElement(%d) = %d, want %d", e, d.RankOfElement(e), o)
		}
	}
}

func TestDecompNeighbors(t *testing.T) {
	da := mesh.New(4, 4, 4, 0, 1, 0, 1, 0, 1)
	d, err := NewDecomp(da, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Corner of a 2x2x2 rank grid sees all 7 other ranks.
	nbrs := d.Neighbors(0)
	if len(nbrs) != 7 {
		t.Fatalf("corner rank neighbours = %d, want 7", len(nbrs))
	}
	// Neighbour relation is symmetric.
	for r := 0; r < d.Size(); r++ {
		for _, n := range d.Neighbors(r) {
			found := false
			for _, b := range d.Neighbors(n) {
				if b == r {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("asymmetric neighbours: %d -> %d", r, n)
			}
		}
	}
}

func TestDecompErrors(t *testing.T) {
	da := mesh.New(2, 2, 2, 0, 1, 0, 1, 0, 1)
	if _, err := NewDecomp(da, 0, 1, 1); err == nil {
		t.Fatal("expected error for zero parts")
	}
	if _, err := NewDecomp(da, 4, 1, 1); err == nil {
		t.Fatal("expected error for too many parts")
	}
}
