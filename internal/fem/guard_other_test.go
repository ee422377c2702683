//go:build !unix

package fem

import (
	"math"
	"testing"
)

// guarded without page protection: the block sits in a sentinel-padded
// heap slice, so only stores outside it are caught (guard_unix_test.go has
// the faulting version).
type guarded struct {
	v, all []float64
	lo     int
}

const sentinelBits = 0x7ff8_dead_beef_f00d

func newGuarded(t testing.TB, n int, atEnd bool) *guarded {
	g := &guarded{all: make([]float64, n+16), lo: 8}
	for i := range g.all {
		g.all[i] = math.Float64frombits(sentinelBits)
	}
	g.v = g.all[8 : 8+n : 8+n]
	return g
}

func (g *guarded) check(t testing.TB, what string) {
	t.Helper()
	for i, x := range g.all {
		if (i < g.lo || i >= g.lo+len(g.v)) && math.Float64bits(x) != sentinelBits {
			t.Fatalf("%s: store outside the block at %d", what, i-g.lo)
		}
	}
}

func (g *guarded) free() {}
