package comm

import "testing"

// TestAggTopology: blocks must tile [0, Size) contiguously, every
// rank's root must be the first rank of its block, and the member lists
// must partition the non-root ranks — for even and uneven divisions,
// including the degenerate Roots==1 (all-to-rank-0 topology) and Roots==Size
// (fully redundant) corners.
func TestAggTopology(t *testing.T) {
	cases := []struct{ size, roots int }{
		{1, 1}, {8, 1}, {8, 2}, {8, 4}, {8, 8},
		{10, 4}, {13, 5}, {64, 8}, {512, 8}, {512, 64},
	}
	for _, c := range cases {
		a, err := NewAgg(c.size, c.roots)
		if err != nil {
			t.Fatalf("NewAgg(%d,%d): %v", c.size, c.roots, err)
		}
		seen := make([]int, c.size) // how many blocks claim each rank
		roots := a.RootList()
		if len(roots) != c.roots {
			t.Fatalf("agg(%d,%d): %d roots listed", c.size, c.roots, len(roots))
		}
		for g := 0; g < c.roots; g++ {
			root := a.Root(g)
			if a.Block(root) != g {
				t.Fatalf("agg(%d,%d): root %d of block %d inconsistent", c.size, c.roots, root, g)
			}
			if roots[g] != root {
				t.Fatalf("agg(%d,%d): RootList[%d] = %d, Root(%d) = %d", c.size, c.roots, g, roots[g], g, root)
			}
			seen[root]++
			for _, m := range a.Members(g) {
				if a.Block(m) != g {
					t.Fatalf("agg(%d,%d): member %d of block %d maps to block %d", c.size, c.roots, m, g, a.Block(m))
				}
				if a.Root(a.Block(m)) == m {
					t.Fatalf("agg(%d,%d): member %d of block %d is a root", c.size, c.roots, m, g)
				}
				seen[m]++
			}
		}
		for rank, n := range seen {
			if n != 1 {
				t.Fatalf("agg(%d,%d): rank %d claimed by %d blocks", c.size, c.roots, rank, n)
			}
		}
	}
}

// TestAggRejectsBadShapes: root counts outside [1, size] must fail.
func TestAggRejectsBadShapes(t *testing.T) {
	for _, c := range []struct{ size, roots int }{
		{0, 1}, {8, 0}, {8, -1}, {8, 9},
	} {
		if _, err := NewAgg(c.size, c.roots); err == nil {
			t.Fatalf("NewAgg(%d,%d): expected error", c.size, c.roots)
		}
	}
}
