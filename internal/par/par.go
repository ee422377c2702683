// Package par provides the shared-memory worker-pool primitives used by
// the element-parallel operator kernels and row-parallel SpMV. It is the
// intra-node half of the paper's parallel substrate: the original pTatin3D
// relies on MPI ranks per core; here "cores" are long-lived worker
// goroutines sharing one address space (see DESIGN.md, "Substitutions
// (paper → this repo)"). All dispatch goes through one persistent pool
// (pool.go) — no goroutines are spawned per call — as jobs of one or more
// phases: For is one phase of balanced chunks, Phased a sequence of phases
// that pays the pool's wake-up once, Run a Phased job put together from
// Parts.
package par

import (
	"sync/atomic"

	"ptatin3d/internal/telemetry"
)

// Probe carries the worker-occupancy instruments recorded by For and
// Phased (a Phased item counts as a chunk). All fields are nil-safe
// telemetry handles; the probe itself is installed via SetTelemetry and
// read through an atomic pointer, so the disabled cost in a region is one
// atomic load plus a nil check.
type Probe struct {
	Calls   *telemetry.Counter // For invocations that went parallel
	Serial  *telemetry.Counter // For invocations run on the caller's goroutine
	Chunks  *telemetry.Counter // worker chunks launched
	Items   *telemetry.Counter // items distributed
	Busy    *telemetry.Timer   // per-chunk busy time (summed over workers)
	Wall    *telemetry.Timer   // caller wall time of parallel regions
	Workers *telemetry.Counter // workers requested (occupancy denominator)

	// Pool-occupancy instruments: how chunk execution splits between the
	// persistent pool workers and the calling goroutine (which always
	// participates in its own job), and the pool size itself. The pooled
	// fraction ChunksPooled/(ChunksPooled+ChunksInline) is the direct
	// measure of how much help the pool provided.
	PoolWorkers  *telemetry.Gauge   // persistent pool size (GOMAXPROCS at start)
	ChunksPooled *telemetry.Counter // chunks executed by pool workers
	ChunksInline *telemetry.Counter // chunks executed by the calling goroutine
}

var probe atomic.Pointer[Probe]

// SetTelemetry installs worker-occupancy instrumentation under sc
// ("calls", "chunks", "items", "workers" counters and "busy"/"wall"
// timers, plus the pool instruments "pool_workers", "chunks_pooled",
// "chunks_inline"). Occupancy is Busy.Elapsed / Wall.Elapsed ÷
// (Workers/Calls): the fraction of requested worker-seconds actually
// spent in body closures. Passing a nil scope uninstalls the probe. Safe
// to call concurrently with running For loops.
func SetTelemetry(sc *telemetry.Scope) {
	if sc == nil {
		probe.Store(nil)
		return
	}
	probe.Store(&Probe{
		Calls:        sc.Counter("calls"),
		Serial:       sc.Counter("serial_calls"),
		Chunks:       sc.Counter("chunks"),
		Items:        sc.Counter("items"),
		Busy:         sc.Timer("busy"),
		Wall:         sc.Timer("wall"),
		Workers:      sc.Counter("workers"),
		PoolWorkers:  sc.Gauge("pool_workers"),
		ChunksPooled: sc.Counter("chunks_pooled"),
		ChunksInline: sc.Counter("chunks_inline"),
	})
}

// For partitions the half-open range [0,n) into contiguous chunks and runs
// body(lo,hi) on the persistent worker pool, the caller included. It
// blocks until all chunks finish. With nworkers <= 1 the body is invoked
// once on the caller's goroutine, so sequential runs have zero scheduling
// overhead.
//
// The partition is balanced: chunk w is [w·n/nw, (w+1)·n/nw), so with
// nw = min(nworkers, n) every chunk is non-empty and chunk sizes differ by
// at most one — no idle trailing workers for any (nworkers, n) pair.
//
// For may be called concurrently from any number of goroutines, and from
// inside a body already running on the pool (nested dispatch): the caller
// always executes chunks of its own job, so a busy pool costs parallelism,
// never progress. A panic in a body is re-raised on the caller's
// goroutine after the remaining chunks complete.
func For(nworkers, n int, body func(lo, hi int)) {
	ForChunk(nworkers, n, func(_, lo, hi int) { body(lo, hi) })
}

// ForChunk is For with the chunk index exposed: body(c, lo, hi) where c
// is the deterministic chunk number in [0, min(nworkers,n)). The chunk →
// range mapping depends only on (nworkers, n) — never on which pool
// worker executes the chunk — so per-chunk scratch indexed by c is
// race-free and schedules built on c are reproducible.
//
// It is the one-phase case of Phased: the chunks are the phase's items.
func ForChunk(nworkers, n int, body func(c, lo, hi int)) {
	if n <= 0 {
		return
	}
	if nworkers <= 1 || n == 1 {
		if p := probe.Load(); p != nil {
			p.Serial.Inc()
			p.Items.Add(int64(n))
		}
		body(0, 0, n)
		return
	}
	nchunks := min(nworkers, n)
	region(nchunks, 1, int64(n),
		func(int) int { return nchunks },
		func(_, c int) {
			lo, hi := Chunk(c, nchunks, n)
			body(c, lo, hi)
		})
}

// Phased runs a job of nphases phases, in order, with one dispatch to the
// pool: prepare(ph) is called on the caller's goroutine just before phase
// ph starts and returns its item count (≤ 0 skips the phase); item(ph, i)
// then runs once for every i in [0, count), items claimed one at a time by
// the caller and by up to nworkers-1 pool workers; and prepare(ph+1) is
// not called until every item of phase ph has returned. It is a sequence
// of For regions that pays the pool's wake-up once: a worker that answers
// the request stays with the job, waiting on its counters between phases,
// until the last phase has nothing left to claim, and then parks on the
// queue again. A worker that arrives late joins at the phase in flight,
// and one that never arrives is not waited for — the caller claims every
// item nobody else has — so the guarantees of For carry over unchanged:
// safe from any number of goroutines and from inside an item (nested), a
// busy pool costs parallelism, never progress, and a panic in an item is
// re-raised on the caller once its phase has drained (later phases are
// skipped, the helpers released). With nworkers <= 1 everything runs on
// the caller's goroutine with no scheduling at all.
//
// What an item computes must not depend on who runs it or on the order
// in which the items of one phase are claimed; everything prepare(ph) and
// the items of phase ph wrote is visible to prepare(ph+1) and its items.
func Phased(nworkers, nphases int, prepare func(phase int) int, item func(phase, i int)) {
	if nworkers <= 1 {
		var items int64
		for ph := 0; ph < nphases; ph++ {
			n := prepare(ph)
			for i := 0; i < n; i++ {
				item(ph, i)
			}
			items += int64(max(n, 0))
		}
		if p := probe.Load(); p != nil {
			p.Serial.Inc()
			p.Items.Add(items)
		}
		return
	}
	region(nworkers, nphases, -1, prepare, item)
}

// region dispatches one parallel job and records it on the probe. Every
// item the job distributes is a chunk of the occupancy instruments; size
// is what the Items counter grows by, the job's own item count when
// negative.
func region(nworkers, nphases int, size int64, prepare func(phase int) int, item func(phase, i int)) {
	p := probe.Load()
	if p == nil {
		dispatch(nworkers, nphases, prepare, item)
		return
	}
	p.Calls.Inc()
	p.Workers.Add(int64(nworkers))
	wallStart := p.Wall.Start()
	chunks := dispatch(nworkers, nphases, prepare, item)
	p.Wall.Stop(wallStart)
	p.Chunks.Add(chunks)
	if size < 0 {
		size = chunks
	}
	p.Items.Add(size)
	p.PoolWorkers.Set(float64(poolSize))
}

// Chunk returns the bounds of chunk c of the balanced partition of [0,n)
// into nchunks contiguous chunks: the ranges For hands out, for a Phased
// item that stands for a range.
func Chunk(c, nchunks, n int) (lo, hi int) {
	return c * n / nchunks, (c + 1) * n / nchunks
}

// Chunks returns the balanced partition For uses for (nworkers, n): the
// lo/hi bounds of each chunk. Exposed for tests and for callers that need
// to preallocate per-chunk scratch.
func Chunks(nworkers, n int) [][2]int {
	if n <= 0 {
		return nil
	}
	if nworkers <= 1 || n == 1 {
		return [][2]int{{0, n}}
	}
	if nworkers > n {
		nworkers = n
	}
	out := make([][2]int, nworkers)
	for w := range out {
		out[w][0], out[w][1] = Chunk(w, nworkers, n)
	}
	return out
}

// Part is a run of consecutive phases of a Phased job, so that schedules
// written apart — a smoother visit, an operator apply, a transfer — can
// share one dispatch. Prepare and Item are Phased's, with phases counted
// from the part's own first. Done, when set, runs on the caller's
// goroutine once the part's last phase has drained and before the next
// part's first Prepare: the place to stop a timer or return scratch.
type Part struct {
	Phases  int
	Prepare func(phase int) int
	Item    func(phase, i int)
	Done    func()
}

// Each is the one-phase Part of n items.
func Each(n int, item func(i int)) Part {
	return Part{Phases: 1, Prepare: func(int) int { return n }, Item: func(_, i int) { item(i) }}
}

// Ranges is the one-phase Part that covers [0,n) in at most nchunks
// balanced ranges — the partition For hands out.
func Ranges(nchunks, n int, body func(lo, hi int)) Part {
	k := min(max(1, nchunks), n)
	return Each(k, func(c int) { body(Chunk(c, k, n)) })
}

// Run runs the parts one after another as a single Phased job.
func Run(nworkers int, parts ...Part) {
	total := 0
	for i := range parts {
		total += parts[i].Phases
	}
	// cur and first — the part in flight and the job phase it starts at —
	// move in prepare, on the caller, before the phase they describe is
	// published; its items read them.
	cur, first := 0, 0
	leave := func() {
		if done := parts[cur].Done; done != nil {
			done()
		}
		first += parts[cur].Phases
		cur++
	}
	Phased(nworkers, total, func(ph int) int {
		for ph >= first+parts[cur].Phases {
			leave()
		}
		return parts[cur].Prepare(ph - first)
	}, func(ph, i int) {
		parts[cur].Item(ph-first, i)
	})
	for cur < len(parts) {
		leave()
	}
}
