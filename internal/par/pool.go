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
// GOMAXPROCS long-lived, parked worker goroutines; For/ForChunk enqueue a
// job descriptor and the workers steal balanced chunks from it with one
// atomic fetch-add per chunk.
//
// Deadlock freedom is structural: the caller always participates in its
// own job (it runs chunks until none remain) and help requests to the
// pool are posted non-blockingly. A full queue or a fully busy pool
// therefore degrades parallelism, never progress — which is also what
// makes nested dispatch (a worker's body calling For again) safe.
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
		// worker absorbs bursts of concurrent For callers without ever
		// blocking a producer (sends are non-blocking regardless).
		poolQueue = make(chan *poolJob, 8*poolSize)
		for w := 0; w < poolSize; w++ {
			go poolWorker(w)
		}
	})
}

// poolWorker parks on the queue and steals chunks from whatever job it
// receives. A stale pointer to an already-finished job is harmless: the
// chunk counter is exhausted, so run returns immediately.
func poolWorker(id int) {
	_ = id
	for jb := range poolQueue {
		jb.run(true)
	}
}

// poolJob is one For/ForChunk invocation in flight: a balanced chunking
// of [0,n) into nchunks pieces, claimed by workers (and the caller) via
// an atomic counter. The first panic out of a body is captured and
// re-raised on the caller's goroutine after all chunks complete.
type poolJob struct {
	n, nchunks int
	body       func(c, lo, hi int)
	next       atomic.Int64
	wg         sync.WaitGroup
	panicOnce  sync.Once
	panicVal   atomic.Pointer[any]
}

// run claims and executes chunks until the job is exhausted. pooled
// records whether the executing goroutine is a pool worker (for the
// occupancy instruments) or the calling goroutine.
func (jb *poolJob) run(pooled bool) {
	p := probe.Load()
	for {
		c := int(jb.next.Add(1) - 1)
		if c >= jb.nchunks {
			return
		}
		jb.runChunk(c, pooled, p)
	}
}

// runChunk executes one chunk with panic capture. wg.Done is deferred
// first so it runs after the recover — a panicking body can never leave
// the caller blocked in Wait.
func (jb *poolJob) runChunk(c int, pooled bool, p *Probe) {
	defer jb.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			jb.panicOnce.Do(func() { jb.panicVal.Store(&r) })
		}
	}()
	lo := c * jb.n / jb.nchunks
	hi := (c + 1) * jb.n / jb.nchunks
	if p != nil {
		if pooled {
			p.ChunksPooled.Inc()
		} else {
			p.ChunksInline.Inc()
		}
		st := p.Busy.Start()
		jb.body(c, lo, hi)
		p.Busy.Stop(st)
		return
	}
	jb.body(c, lo, hi)
}

// dispatch runs body over the balanced nchunks-chunking of [0,n) on the
// pool, with the caller stealing chunks too, and blocks until every chunk
// has completed. Panics from bodies are re-raised here with their
// original value.
func dispatch(nchunks, n int, body func(c, lo, hi int)) {
	startPool()
	jb := &poolJob{n: n, nchunks: nchunks, body: body}
	jb.wg.Add(nchunks)
	// Post help requests for up to nchunks-1 chunks (the caller takes at
	// least one itself), never blocking: a full queue just means the
	// caller ends up running more chunks inline.
	help := nchunks - 1
	if help > poolSize {
		help = poolSize
	}
offer:
	for i := 0; i < help; i++ {
		select {
		case poolQueue <- jb:
		default:
			break offer
		}
	}
	jb.run(false)
	jb.wg.Wait()
	if pv := jb.panicVal.Load(); pv != nil {
		panic(*pv)
	}
}
