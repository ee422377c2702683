//go:build unix

package fem

import (
	"math"
	"syscall"
	"testing"
	"unsafe"
)

// guarded is a block of floats between two inaccessible pages: v is the
// block, against the leading guard page or (atEnd) the trailing one; the
// rest of the accessible pages holds sentinels. A load that leaves the
// block on the guarded side faults; a store that leaves it on the other
// side fails check.
type guarded struct {
	v      []float64
	all    []float64 // the accessible pages, v included
	region []byte
}

const sentinelBits = 0x7ff8_dead_beef_f00d

func newGuarded(t testing.TB, n int, atEnd bool) *guarded {
	t.Helper()
	ps := syscall.Getpagesize()
	data := (8*n + ps - 1) / ps * ps
	region, err := syscall.Mmap(-1, 0, data+2*ps, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	for _, page := range [][]byte{region[:ps], region[ps+data:]} {
		if err := syscall.Mprotect(page, syscall.PROT_NONE); err != nil {
			t.Fatalf("mprotect: %v", err)
		}
	}
	g := &guarded{region: region}
	g.all = unsafe.Slice((*float64)(unsafe.Pointer(&region[ps])), data/8)
	for i := range g.all {
		g.all[i] = math.Float64frombits(sentinelBits)
	}
	g.v = g.all[:n:n]
	if atEnd {
		g.v = g.all[len(g.all)-n:]
	}
	return g
}

// check fails the test when a sentinel outside the block was overwritten.
func (g *guarded) check(t testing.TB, what string) {
	t.Helper()
	lo := int((uintptr(unsafe.Pointer(&g.v[0])) - uintptr(unsafe.Pointer(&g.all[0]))) / 8)
	for i, x := range g.all {
		if (i < lo || i >= lo+len(g.v)) && math.Float64bits(x) != sentinelBits {
			t.Fatalf("%s: store %d floats outside the block", what, min(lo-i, i-(lo+len(g.v)-1)))
		}
	}
}

func (g *guarded) free() {
	_ = syscall.Munmap(g.region) // a leaked test mapping dies with the process
}
