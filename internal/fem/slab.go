package fem

import (
	"runtime"
	"sort"
	"sync"

	"ptatin3d/internal/la"
	"ptatin3d/internal/par"
)

// Slab-partitioned owner-computes scatter: the one block schedule of
// every whole-vector element loop (the operators, the diagonal, the loads,
// the coupling and the blocked smoother's applies), and the barrier-free
// replacement for the 8-color element schedule. An element loop is an
// elemPass, a kernel and what it gathers; each slab is one block item.
//
// Elements are split into S contiguous slabs. A worker that processes
// slab s scatter-adds directly into the global vector for nodes touched
// by slab s alone ("interior" nodes — the overwhelming majority), and
// accumulates contributions to nodes shared with other slabs into a small
// private per-slab overlap buffer. After all slabs finish, one
// node-parallel merge pass folds the buffers into the global vector,
// summing each shared node's slab contributions in ascending slab order.
//
// This is the shared-memory analogue of the paper's rank-local element
// loops followed by a halo sum (VecGhostUpdate): the slab plays the role
// of the MPI rank's element partition, the overlap buffer the role of the
// ghost region, and the merge pass the role of the neighborhood
// reduction. Compared to coloring it removes the 8 full barriers per
// apply and restores the cache-friendly lexicographic element order.
//
// Determinism: S is fixed at first use — min(nel, max(8, GOMAXPROCS)) —
// and never depends on Problem.Workers. Elements within a slab run in
// ascending order on one worker, and the merge sums slabs in ascending
// index, so the floating-point association of every output entry is a
// function of the mesh alone: results are bit-identical for any worker
// count, which the colored schedule never guaranteed.

// slabBlock is the gather→apply→scatter batch width: enough elements to
// amortize the Emap indirection and keep the three scratch blocks
// (~15 kB) inside L1.
const slabBlock = 8

// slabInfo is the immutable slab partition of a Problem's element range
// and its run table, built once on a Problem's first element loop.
type slabInfo struct {
	S   int   // slab count (fixed, worker-count independent)
	off []int // S+1 slab element offsets: slab s is [off[s], off[s+1])

	// shared lists, in ascending node id, every node touched by more than
	// one slab; sharedIdx maps node id → index into shared (-1: interior).
	shared    []int32
	sharedIdx []int32

	// minSlab/maxSlab give, per shared-list index, the first and last slab
	// touching that node. Every slab in between covers the node in its
	// node span (spans are monotone in s for lexicographic element order),
	// so merge reads need no per-slab membership test.
	minSlab, maxSlab []int32

	// bufLo/bufHi give, per slab, the half-open shared-list index range of
	// the slab's node span: its overlap buffer stores 3 floats per shared
	// node in [bufLo, bufHi).
	bufLo, bufHi []int32

	// Ownership: every dof is written by exactly one block. ownInterior[b]
	// lists the dof spans of the nodes touched by slab b alone (block 0
	// also owns the nodes no element touches, which its apply zeroes);
	// ownShared[b] lists the shared-list indices t with minSlab[t] == b.
	// dep, the dependency distance, is the largest slab span of a shared
	// node.
	ownInterior [][]la.Span
	ownShared   [][]int32
	dep         int

	// runs is the run table of the partition (runs.go): per element its
	// nine node runs, its constraint mask and where each run goes.
	runs []elemRuns
}

// slabBufs is one apply's set of per-slab overlap buffers, pooled so
// concurrent applies on the same Problem never share accumulation state.
type slabBufs struct {
	bufs [][]float64
}

// slabs returns the Problem's slab partition, building it on first use:
// S = min(nel, max(8, GOMAXPROCS)) contiguous slabs of near-equal size.
func (p *Problem) slabs() *slabInfo {
	p.slabOnce.Do(func() {
		nel := p.DA.NElements()
		S := min(nel, max(8, runtime.GOMAXPROCS(0)))
		off := make([]int, S+1)
		for s := range off {
			off[s] = s * nel / S
		}
		p.slab = newSlabInfo(p, off)
	})
	return p.slab
}

// newSlabInfo derives the shared-node and ownership tables of the
// contiguous element partition with slab s = [off[s], off[s+1]).
func newSlabInfo(p *Problem, off []int) *slabInfo {
	S := len(off) - 1
	info := &slabInfo{S: S, off: off}

	nn := p.DA.NNodes()
	minS := make([]int32, nn)
	maxS := make([]int32, nn)
	for n := range minS {
		minS[n] = -1
	}
	for s := 0; s < S; s++ {
		em := p.Emap[27*info.off[s] : 27*info.off[s+1]]
		for _, n := range em {
			if minS[n] < 0 {
				minS[n] = int32(s)
			}
			maxS[n] = int32(s)
		}
	}

	info.sharedIdx = make([]int32, nn)
	for n := 0; n < nn; n++ {
		if minS[n] >= 0 && minS[n] != maxS[n] {
			info.sharedIdx[n] = int32(len(info.shared))
			info.shared = append(info.shared, int32(n))
			info.minSlab = append(info.minSlab, minS[n])
			info.maxSlab = append(info.maxSlab, maxS[n])
		} else {
			info.sharedIdx[n] = -1
		}
	}

	info.bufLo = make([]int32, S)
	info.bufHi = make([]int32, S)
	for s := 0; s < S; s++ {
		em := p.Emap[27*info.off[s] : 27*info.off[s+1]]
		lo, hi := em[0], em[0]
		for _, n := range em {
			if n < lo {
				lo = n
			}
			if n > hi {
				hi = n
			}
		}
		info.bufLo[s] = int32(sort.Search(len(info.shared), func(t int) bool {
			return info.shared[t] >= lo
		}))
		info.bufHi[s] = int32(sort.Search(len(info.shared), func(t int) bool {
			return info.shared[t] > hi
		}))
	}

	info.ownInterior = make([][]la.Span, S)
	for n := 0; n < nn; n++ {
		if info.sharedIdx[n] < 0 {
			b := max(minS[n], 0)
			info.ownInterior[b] = la.AppendSpan(info.ownInterior[b], 3*n, 3*n+3)
		}
	}
	info.ownShared = make([][]int32, S)
	for t := range info.shared {
		b := info.minSlab[t]
		info.ownShared[b] = append(info.ownShared[b], int32(t))
		info.dep = max(info.dep, int(info.maxSlab[t]-info.minSlab[t]))
	}
	info.runs = newRunTable(p, info)
	return info
}

// getSlabBufs takes a zero-filled-on-demand buffer set from the pool.
func (p *Problem) getSlabBufs(info *slabInfo) *slabBufs {
	if b := p.slabPool.get(); b != nil {
		return b
	}
	b := &slabBufs{bufs: make([][]float64, info.S)}
	for s := 0; s < info.S; s++ {
		b.bufs[s] = make([]float64, 3*(info.bufHi[s]-info.bufLo[s]))
	}
	return b
}

// SlabStats reports the slab partition: slab count, shared (slab-boundary)
// node count, and total node count. Exposed for tests, drivers and the
// cost model; triggers the lazy partition build.
func (p *Problem) SlabStats() (slabs, sharedNodes, totalNodes int) {
	info := p.slabs()
	return info.S, len(info.shared), p.DA.NNodes()
}

// elemPass is one element loop: the kernel and what it reads. kern must
// fully define ye (overwrite, not accumulate), because the arena's blocks
// are reused across elements without re-zeroing; it receives ue and xe
// stale when the pass gathers no state or no coordinates.
type elemPass struct {
	kern   func(e int, ue, xe, ye *[81]float64, sc *arena)
	state  gather
	coords bool // gather the nodal coordinates into xe
}

// gather says which state an element kernel reads in ue.
type gather uint8

const (
	noState     gather = iota
	maskedState        // constrained entries zeroed: symmetric Dirichlet elimination
	rawState           // the state as it is: a residual of a boundary-valued state
)

// rows says what a whole-vector apply leaves in y.
type rows uint8

const (
	// zeroRows: y = the element sum, constrained rows 0.
	zeroRows rows = iota
	// identityRows: y = the element sum, constrained rows u's (the
	// identity block of the symmetric elimination).
	identityRows
	// addRows: y += the element sum on free rows; constrained rows keep
	// what they held.
	addRows
)

// apply runs pass over every element on the block schedule into y.
func (p *Problem) apply(pass elemPass, r rows, u, y la.Vec) {
	par.Run(p.Workers, p.applyPart(&pass, r, u, y))
}

// applyPart is the block schedule of one apply as a par.Part of two
// phases: the blocks, one item each (applyBlock), then the merge of the
// shared-node list in Workers ranges, which sums each free shared row's
// overlap buffers in ascending slab order, plus one item that writes the
// constrained rows unless r is addRows. The merge writes free rows only
// and that item constrained rows only.
func (p *Problem) applyPart(pass *elemPass, r rows, u, y la.Vec) par.Part {
	info := p.slabs()
	mask := p.BC.Mask
	ns := len(info.shared)
	nmerge := min(max(1, p.Workers), ns)
	add := r == addRows
	var bufs *slabBufs
	return par.Part{
		Phases: 2,
		Prepare: func(ph int) int {
			if ph == 0 {
				bufs = p.getSlabBufs(info)
				return info.S
			}
			if add {
				return nmerge
			}
			return nmerge + 1
		},
		Item: func(ph, i int) {
			if ph == 0 {
				p.applyBlock(i, pass, add, u, y, bufs.bufs[i])
				return
			}
			if i == nmerge {
				for d, m := range mask {
					switch {
					case !m:
					case r == identityRows:
						y[d] = u[d]
					default:
						y[d] = 0
					}
				}
				return
			}
			lo, hi := par.Chunk(i, nmerge, ns)
			for t := lo; t < hi; t++ {
				// a starts at +0, so it is never −0 and y[d] = a has the
				// bits of 0 + a.
				var a [3]float64
				for s := int(info.minSlab[t]); s <= int(info.maxSlab[t]); s++ {
					o := 3 * (t - int(info.bufLo[s]))
					b := bufs.bufs[s]
					a[0] += b[o]
					a[1] += b[o+1]
					a[2] += b[o+2]
				}
				d0 := 3 * int(info.shared[t])
				for c, ac := range a {
					switch d := d0 + c; {
					case mask[d]:
					case add:
						y[d] += ac
					default:
						y[d] = ac
					}
				}
			}
		},
		Done: func() { p.slabPool.put(bufs) },
	}
}

// applyBlock computes block b's element contributions to y in ascending
// element order, slabBlock elements at a time gathered, applied and
// scattered run by run (scatterBlock): free rows of the block's interior
// nodes are accumulated directly, after the block's own interior spans
// were zeroed unless add is set, and shared-node contributions go to the
// block's overlap buffer buf (zeroed first). No constrained rows and no merge: applyPart and the
// blocked smoother compose those, in the same ascending-slab order, so
// their sums agree bitwise.
func (p *Problem) applyBlock(b int, pass *elemPass, add bool, u, y la.Vec, buf []float64) {
	info := p.slab
	for i := range buf {
		buf[i] = 0
	}
	if !add {
		for _, sp := range info.ownInterior[b] {
			clear(y[sp.Lo:sp.Hi])
		}
	}
	sc := p.getArena()
	bufOff := 3 * int(info.bufLo[b])
	e0, e1 := info.off[b], info.off[b+1]
	for blk := e0; blk < e1; blk += slabBlock {
		bn := min(e1-blk, slabBlock)
		for i := 0; i < bn; i++ {
			p.gatherElem(blk+i, pass, u, &sc.ue[i], &sc.xe[i])
		}
		for i := 0; i < bn; i++ {
			pass.kern(blk+i, &sc.ue[i], &sc.xe[i], &sc.ye[i], sc)
		}
		for i := 0; i < bn; i++ {
			p.scatterBlock(&info.runs[blk+i], &sc.ye[i], y, buf, bufOff)
		}
	}
	p.arenas.put(sc)
}

// scatterBlock adds an element's ye where the block schedule sends it: a
// slab-interior run into the free rows of y, nine at once when none is
// constrained; a run of shared nodes into the block's overlap buffer buf
// (whose first entry is shared-list dof bufOff), all nine at once; a
// mixed run node by node, each to where its node goes.
func (p *Problem) scatterBlock(er *elemRuns, ye *[81]float64, y la.Vec, buf []float64, bufOff int) {
	info := p.slab
	for r := 0; r < 9; r++ {
		src := (*[9]float64)(ye[9*r : 9*r+9])
		s := int(er.start[r])
		var dst []float64
		switch er.kind[r] {
		case runOut:
			m := er.runMask(r)
			if m == 0 {
				dst = y[s:]
				break
			}
			for j := range src {
				if m>>uint(j)&1 == 0 {
					y[s+j] += src[j]
				}
			}
			continue
		case runBuf:
			dst = buf[3*int(info.sharedIdx[s/3])-bufOff:]
		default:
			m := er.runMask(r)
			for k := 0; k < 3; k++ {
				node := s/3 + k
				if t := int(info.sharedIdx[node]); t >= 0 {
					o := 3*t - bufOff
					buf[o] += src[3*k]
					buf[o+1] += src[3*k+1]
					buf[o+2] += src[3*k+2]
					continue
				}
				for c := 0; c < 3; c++ {
					if m>>uint(3*k+c)&1 == 0 {
						y[3*node+c] += src[3*k+c]
					}
				}
			}
			continue
		}
		// Nine adds, written out as in scatterRuns.
		d := (*[9]float64)(dst)
		d[0], d[1], d[2] = d[0]+src[0], d[1]+src[1], d[2]+src[2]
		d[3], d[4], d[5] = d[3]+src[3], d[4]+src[4], d[5]+src[5]
		d[6], d[7], d[8] = d[6]+src[6], d[7]+src[7], d[8]+src[8]
	}
}

// applyElements accumulates pass over an element subset into the free
// rows of y, serially and in the order given: the subset form of the
// block schedule behind every ApplyElements, where parallelism comes from
// the ranks. No constrained rows are written, so partial sums from
// different ranks stay addable.
func (p *Problem) applyElements(elems []int, pass *elemPass, u, y la.Vec) {
	runs := p.runs()
	sc := p.getArena()
	for _, e := range elems {
		p.gatherElem(e, pass, u, &sc.ue[0], &sc.xe[0])
		pass.kern(e, &sc.ue[0], &sc.xe[0], &sc.ye[0], sc)
		scatterRuns(&runs[e], &sc.ye[0], y)
	}
	p.arenas.put(sc)
}

// gatherElem fills what pass reads of element e: the state into ue, the
// coordinates into xe, run by run.
func (p *Problem) gatherElem(e int, pass *elemPass, u la.Vec, ue, xe *[81]float64) {
	er := &p.slab.runs[e]
	if pass.state != noState {
		gatherRuns(er, u, ue)
		if pass.state == maskedState {
			er.zeroMasked(ue)
		}
	}
	if pass.coords {
		p.gatherCoords(e, xe)
	}
}

// slabState is embedded in Problem: the lazily built partition, the pool
// of per-apply overlap buffer sets and the pool of kernel arenas.
type slabState struct {
	slabOnce sync.Once
	slab     *slabInfo
	slabPool freeList[slabBufs]
	arenas   freeList[arena]
}

// arena is the scratch one block item or one subset call works in: the
// gathered element blocks of a batch, the float64 kernel scratch and the
// float32 one of the resident kernel's single-precision variant.
type arena struct {
	ue, ye [slabBlock][81]float64
	ks     kernScratch
	xe     [slabBlock][81]float64
	ks32   kernScratchG[float32]
}

// getArena takes an arena from the pool, or makes one.
func (p *Problem) getArena() *arena {
	if sc := p.arenas.get(); sc != nil {
		return sc
	}
	return new(arena)
}

// freeList is a pool that the garbage collector does not empty: what is
// put back waits for the next get, so applies in a later time step, after
// any number of collections, allocate nothing, on whatever processor a
// goroutine runs. It holds at most as many items as were ever in use at
// once, and it is LIFO, so a worker that puts an arena back and takes one
// again gets the one it just used, still in its cache.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// get returns a pooled item, or nil when the pool is empty.
func (f *freeList[T]) get() *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free = f.free[:n-1]
		return x
	}
	return nil
}

// put returns x to the pool.
func (f *freeList[T]) put(x *T) {
	f.mu.Lock()
	f.free = append(f.free, x)
	f.mu.Unlock()
}
