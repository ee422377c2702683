package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The persistent worker pool. Before this existed, every parallel For
// spawned fresh goroutines and tore them down again — at ~1–2 µs per
// spawn that overhead was paid 8 times per colored operator application
// (once per color barrier) and once per SpMV row sweep. The pool keeps
// GOMAXPROCS long-lived worker goroutines parked on one queue; a parallel
// region (Phased, and For as its one-phase case) posts a job descriptor
// there and the workers that wake claim items from it, one compare-and-
// swap per item.
//
// Deadlock freedom is structural: the caller always participates in its
// own job (it claims items until the phase has none left, so a phase
// completes whether or not anyone else ever shows up) and help requests
// to the pool are posted non-blockingly. A full queue or a fully busy
// pool therefore degrades parallelism, never progress — which is also
// what makes nested dispatch (an item calling For or Phased again) safe.
var (
	poolStart sync.Once
	poolQueue chan *poolJob
	poolSize  int
)

// startPool launches the worker goroutines on first parallel dispatch.
func startPool() {
	poolStart.Do(func() {
		poolSize = runtime.GOMAXPROCS(0)
		if poolSize < 1 {
			poolSize = 1
		}
		// Queue capacity bounds outstanding help requests; 8 slots per
		// worker absorbs bursts of concurrent callers without ever
		// blocking a producer (sends are non-blocking regardless).
		poolQueue = make(chan *poolJob, 8*poolSize)
		for w := 0; w < poolSize; w++ {
			go poolWorker()
		}
	})
}

// poolWorker parks on the queue and helps whatever job it receives until
// that job has ended. A stale pointer to an already-finished job is
// harmless: nothing is left to claim and the job is marked final, so run
// returns immediately.
func poolWorker() {
	for jb := range poolQueue {
		jb.run(true)
	}
}

// poolJob is one parallel region in flight: a sequence of phases whose
// items are numbered consecutively across the whole job, so that three
// monotone counters describe it. The caller publishes a phase by raising
// limit past the phase's items; anyone claims item g by moving next from
// g to g+1 while g < limit; the phase is over when done reaches limit.
// Because a claim succeeds only below limit, an item always belongs to
// the phase that was published when it was claimed, and that phase cannot
// end before the item has — so phase and base, plain fields the caller
// rewrites between phases, are stable for as long as a claimant reads
// them.
type poolJob struct {
	item func(phase, i int)

	phase int   // index of the published phase
	base  int64 // global number of its first item

	next  atomic.Int64 // next unclaimed item
	limit atomic.Int64 // one past the last item of the published phase
	done  atomic.Int64 // items finished
	// final is set once no further phase will be published: after the last
	// phase's limit, or when the job ends early. A helper that finds
	// nothing to claim leaves when it reads true and keeps waiting
	// otherwise. It is stored after limit and loaded before it, so "final
	// and nothing to claim" is never a stale view of an earlier phase.
	final atomic.Bool

	// The first panic out of an item, re-raised on the caller.
	panicVal atomic.Pointer[any]
}

// spinYield is how many polls of a job's counters a waiting participant
// makes between two runtime.Gosched calls: a poll is two atomic loads
// (~2 ns), a yield with nothing else runnable ~0.2 µs, so a waiter notices
// a new phase within nanoseconds and still hands its processor to the
// caller, the garbage collector or another job's goroutine every ~0.3 µs
// when more goroutines than processors want to run.
const spinYield = 64

// spin is an in-job wait. It only ever runs between a job's first
// publish and its end, on a goroutine that has work to come back to.
type spin int

func (s *spin) pause() {
	*s++
	if *s%spinYield == 0 {
		runtime.Gosched()
	}
}

// claim takes the next unclaimed item of the published phase. When there
// is none, over reports whether the job has published its last phase.
func (jb *poolJob) claim() (g int64, ok, over bool) {
	for {
		over = jb.final.Load()
		g = jb.next.Load()
		if g >= jb.limit.Load() {
			return 0, false, over
		}
		if jb.next.CompareAndSwap(g, g+1) {
			return g, true, false
		}
	}
}

// run claims and executes items until the published phase has none left
// (the caller, who then waits for the claimed ones and publishes the
// next) or until the job is over (a pool worker, pooled, who waits on the
// job's counters between phases).
func (jb *poolJob) run(pooled bool) {
	var wait spin
	var ran int64
	for {
		g, ok, over := jb.claim()
		switch {
		case ok:
			jb.runItem(g)
			ran++
			wait = 0
		case !pooled:
			return
		case over:
			statPooled.Add(ran)
			return
		default:
			wait.pause()
		}
	}
}

// runItem executes one item with panic capture. The done count is
// deferred first so it runs after the recover — a panicking item can
// never leave the caller waiting for it.
func (jb *poolJob) runItem(g int64) {
	defer jb.done.Add(1)
	defer func() {
		if r := recover(); r != nil {
			v := r // on the heap only when an item did panic
			jb.panicVal.CompareAndSwap(nil, &v)
		}
	}()
	jb.item(jb.phase, int(g-jb.base))
}

// dispatch runs a job of nphases phases on the pool with up to nworkers
// participants, the caller among them. Panics from items are re-raised here with their original value
// once the phase they occurred in has drained; later phases are skipped.
func dispatch(nworkers, nphases int, prepare func(phase int) int, item func(phase, i int)) {
	startPool()
	jb := &poolJob{item: item}
	// Whatever happens on this goroutine — prepare may panic too — the
	// helpers are released: with final set and nothing to claim they go
	// back to the queue.
	defer jb.final.Store(true)
	// Post help requests, never blocking: a full queue just means the
	// caller ends up running more items itself. A helper occupies a
	// processor for the whole job, so there is no use asking for more of
	// them than there are processors besides the caller's.
	help := min(nworkers, poolSize) - 1
offer:
	for i := 0; i < help; i++ {
		select {
		case poolQueue <- jb:
		default:
			break offer
		}
	}
	var lim int64
	for ph := 0; ph < nphases; ph++ {
		n := prepare(ph)
		if n <= 0 {
			continue
		}
		jb.phase, jb.base = ph, lim
		lim += int64(n)
		jb.limit.Store(lim)
		if ph == nphases-1 {
			jb.final.Store(true)
		}
		jb.run(false)
		var wait spin
		for jb.done.Load() != lim {
			wait.pause()
		}
		if pv := jb.panicVal.Load(); pv != nil {
			panic(*pv)
		}
	}
	statItems.Add(lim)
}

// Always-on totals behind Counts: items of parallel regions, and
// how many of them pool workers executed. Two adds per job and per
// helper, not per item.
var statItems, statPooled atomic.Int64

// Counts returns the process-wide totals of items (For chunks and Phased
// items) that parallel regions have distributed and of those that pool
// workers, not the calling goroutine, executed. Regions that ran serially
// (one worker) are in neither. The ratio of the two differences over an
// interval is the helper share: 0 when the callers did all the work
// themselves, (w-1)/w when w workers shared it evenly.
func Counts() (items, pooled int64) {
	return statItems.Load(), statPooled.Load()
}

// HelperShare is that ratio for the regions since an earlier reading
// (items0, pooled0) of Counts; 0 when there were none.
func HelperShare(items0, pooled0 int64) float64 {
	items, pooled := Counts()
	if items <= items0 {
		return 0
	}
	return float64(pooled-pooled0) / float64(items-items0)
}
