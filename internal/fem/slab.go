package fem

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ptatin3d/internal/la"
	"ptatin3d/internal/par"
	"ptatin3d/internal/telemetry"
)

// Slab-partitioned owner-computes scatter: the barrier-free replacement
// for the 8-color element schedule on every operator apply path.
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

// slabInfo is the immutable slab partition of a Problem's element range,
// built once on first slab apply.
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

// newSlabInfo derives the shared-node tables of the contiguous element
// partition with slab s = [off[s], off[s+1]).
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
	return info
}

// getSlabBufs takes a zero-filled-on-demand buffer set from the pool.
func (p *Problem) getSlabBufs(info *slabInfo) *slabBufs {
	if b, ok := p.slabPool.Get().(*slabBufs); ok {
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

// slabApply runs kern over every element using the slab-partitioned
// owner-computes schedule and accumulates the per-element outputs ye into
// y, skipping constrained rows.
//
//   - u == nil: no state gather; kern receives a stale ue it must ignore.
//   - masked: constrained entries of the gathered ue are zeroed
//     (symmetric Dirichlet elimination); otherwise the raw state is
//     gathered (residual evaluation on a boundary-valued state).
//   - needX: gather nodal coordinates into xe.
//   - accumulate: keep y's prior contents (coupling ApplyGAdd); otherwise
//     y is zeroed first.
//
// kern must fully define ye (overwrite, not accumulate): scratch blocks
// are reused across elements without re-zeroing. The kernScratch arena is
// likewise reused across elements of a worker's chunk.
func (p *Problem) slabApply(u la.Vec, masked, needX, accumulate bool, y la.Vec, kern func(e int, ue, xe, ye *[81]float64, ks *kernScratch)) {
	info := p.slabs()
	if !accumulate {
		y.Zero()
	}
	bufs := p.getSlabBufs(info)
	mask := p.BC.Mask

	slabs := func(slo, shi int) {
		// kern is an opaque func value, so a local arena would escape: 26 kB
		// off the heap per slab and apply (most of a sinker-swarm step's
		// allocations). Pooled instead; every field is overwritten before it
		// is read (see above), so a recycled arena computes the same bits.
		sc, ok := p.slabScratch.Get().(*slabScratch)
		if !ok {
			sc = &slabScratch{}
		}
		defer p.slabScratch.Put(sc)
		ue, xe, ye, ks := &sc.ue, &sc.xe, &sc.ye, &sc.ks
		for s := slo; s < shi; s++ {
			buf := bufs.bufs[s]
			for i := range buf {
				buf[i] = 0
			}
			bufOff := 3 * int(info.bufLo[s])
			e0, e1 := info.off[s], info.off[s+1]
			for b := e0; b < e1; b += slabBlock {
				bn := e1 - b
				if bn > slabBlock {
					bn = slabBlock
				}
				for i := 0; i < bn; i++ {
					e := b + i
					if u != nil {
						if masked {
							p.gatherVec(e, u, &ue[i])
						} else {
							em := p.Emap[27*e : 27*e+27]
							for n := 0; n < 27; n++ {
								d := 3 * int(em[n])
								ue[i][3*n] = u[d]
								ue[i][3*n+1] = u[d+1]
								ue[i][3*n+2] = u[d+2]
							}
						}
					}
					if needX {
						p.gatherCoords(e, &xe[i])
					}
				}
				for i := 0; i < bn; i++ {
					kern(b+i, &ue[i], &xe[i], &ye[i], ks)
				}
				for i := 0; i < bn; i++ {
					em := p.Emap[27*(b+i) : 27*(b+i)+27]
					yei := &ye[i]
					for n := 0; n < 27; n++ {
						node := int(em[n])
						if t := int(p.slab.sharedIdx[node]); t >= 0 {
							o := 3*t - bufOff
							buf[o] += yei[3*n]
							buf[o+1] += yei[3*n+1]
							buf[o+2] += yei[3*n+2]
						} else {
							d := 3 * node
							if !mask[d] {
								y[d] += yei[3*n]
							}
							if !mask[d+1] {
								y[d+1] += yei[3*n+1]
							}
							if !mask[d+2] {
								y[d+2] += yei[3*n+2]
							}
						}
					}
				}
			}
		}
	}

	// Merge pass: per shared node, sum the overlap buffers in ascending
	// slab order. Intermediate slabs not touching the node read exact
	// zeros (the node lies inside their span, so the read is in-bounds).
	merge := func(lo, hi int) {
		for t := lo; t < hi; t++ {
			var a0, a1, a2 float64
			for s := int(info.minSlab[t]); s <= int(info.maxSlab[t]); s++ {
				o := 3 * (t - int(info.bufLo[s]))
				b := bufs.bufs[s]
				a0 += b[o]
				a1 += b[o+1]
				a2 += b[o+2]
			}
			d := 3 * int(info.shared[t])
			if !mask[d] {
				y[d] += a0
			}
			if !mask[d+1] {
				y[d+1] += a1
			}
			if !mask[d+2] {
				y[d+2] += a2
			}
		}
	}

	// One pool job: the slabs, an item each, then the merge in Workers
	// ranges of the shared-node list.
	par.Run(p.Workers,
		par.Each(info.S, func(s int) { slabs(s, s+1) }),
		par.Ranges(p.Workers, len(info.shared), merge))

	p.slabPool.Put(bufs)
	p.countSlabApply(info)
}

// countSlabApply records one slab-scheduled operator application.
func (p *Problem) countSlabApply(info *slabInfo) {
	if fp := femProbe.Load(); fp != nil {
		fp.SlabApplies.Inc()
		fp.Slabs.Set(float64(info.S))
		fp.SharedFrac.Set(float64(len(info.shared)) / float64(p.DA.NNodes()))
	}
}

// FemProbe carries the slab-schedule instruments recorded by slabApply.
type FemProbe struct {
	SlabApplies *telemetry.Counter // slab-scheduled operator applications
	Slabs       *telemetry.Gauge   // slab count S of the partition
	SharedFrac  *telemetry.Gauge   // slab-boundary fraction: shared nodes / total nodes
}

var femProbe atomic.Pointer[FemProbe]

// SetTelemetry installs slab-schedule instrumentation under sc
// ("slab_applies" counter, "slabs" and "shared_frac" gauges). The
// boundary fraction shared_frac is the direct measure of how much of the
// scatter traffic goes through overlap buffers rather than straight into
// the output vector. Passing nil uninstalls the probe.
func SetTelemetry(sc *telemetry.Scope) {
	if sc == nil {
		femProbe.Store(nil)
		return
	}
	femProbe.Store(&FemProbe{
		SlabApplies: sc.Counter("slab_applies"),
		Slabs:       sc.Gauge("slabs"),
		SharedFrac:  sc.Gauge("shared_frac"),
	})
}

// slabState is embedded in Problem: the lazily built partition, the pool
// of per-apply overlap buffer sets and the pool of per-slab kernel arenas.
type slabState struct {
	slabOnce    sync.Once
	slab        *slabInfo
	slabPool    sync.Pool
	slabScratch sync.Pool
}

// slabScratch is the arena one slab of slabApply works in: the gathered
// element blocks of a batch and the kernel scratch.
type slabScratch struct {
	ue, xe, ye [slabBlock][81]float64
	ks         kernScratch
}
