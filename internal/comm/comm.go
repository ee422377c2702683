// Package comm provides the simulated distributed-memory substrate of
// this reproduction (see DESIGN.md, "The rank fabric"): an SPMD "world" of
// rank goroutines with one mailbox each for point-to-point messaging and
// reductions, plus the Cartesian decomposition of the structured mesh
// among ranks (paper §II-D). The original pTatin3D runs one MPI rank per core; here ranks
// are goroutines in one address space, which preserves the communication
// structure (neighbour exchange, Ls/Lr material-point migration lists,
// collective reductions) at laptop scale.
//
// A rank that finds its mailbox empty spins, then parks: it polls an
// atomic count of its queued messages, yielding the processor every
// spinYield polls, before it counts itself waiting and sleeps on its wake
// channel — a message that comes within the spin costs no thread wake-up.
// It spins only while some other rank is computing (counted busy and not
// spinning on an empty mailbox itself), so when every rank waits the
// world goes quiet as promptly as if none spun, and only in a world that
// fits the processors (size ≤ GOMAXPROCS when Run starts), so an
// oversubscribed world parks at once and a spinner never holds the
// processor its sender needs. The bound is a number of polls (spinPolls),
// not a clock: nothing of the fabric's liveness reads the time.
package comm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// World is a fixed-size group of SPMD ranks.
type World struct {
	size int
	// inbox[to] is rank `to`'s one mailbox: every message for it, from
	// whichever rank, in arrival order.
	inbox []inbox

	// Liveness. busy counts the ranks that can still act: inside Run, not
	// waiting in pull on an empty mailbox, or told of a quiet they have not
	// yet acted on. A message for a waiting rank makes it busy again before
	// its sender can stop, so busy reaches 0 only when every rank waits or
	// is done and nothing is in flight: the world is quiet, nothing will
	// ever arrive. stop then counts the waiting ranks busy, bumps epoch
	// and closes quiet (replacing it) to tell them. Lock order: an inbox's
	// mu, then lmu. busy is written under lmu only; it is atomic so a
	// spinning rank can read it without.
	lmu     sync.Mutex
	busy    atomic.Int64
	waiting int
	epoch   int64
	quiet   chan struct{}

	// spin: the world fits the processors (size ≤ GOMAXPROCS when Run
	// began), so a rank may poll its empty mailbox before it parks.
	// spinning counts the ranks polling with nothing queued yet; they are
	// busy too, so busy exceeds spinning exactly while some rank computes.
	spin     bool
	spinning atomic.Int64
}

// spinPolls bounds a rank's polls of its empty mailbox before it parks,
// and spinYield is how many of them run between two runtime.Gosched
// calls (as in par's in-job wait). A poll is three atomic loads; the
// 2^18 of the bound take ~1 ms on a 2-vCPU x86 host with nothing else
// runnable, over ten times the ~70 µs a park and wake-up cost there, so a
// wait that outlasts the spin pays at most a tenth more for parking. It
// is also what a host busier than the world (another process on a rank's
// core) can lose per wait to the spin.
const (
	spinPolls = 1 << 18
	spinYield = 64
)

// NewWorld creates a world of n ranks.
func NewWorld(n int) *World {
	if n < 1 {
		panic("comm: world size must be >= 1")
	}
	w := &World{size: n, inbox: make([]inbox, n), quiet: make(chan struct{})}
	for to := range w.inbox {
		w.inbox[to].wake = make(chan struct{}, 1)
		w.inbox[to].epoch = -1
	}
	return w
}

// wait counts the reader of b, busy until now, as waiting in pull (called
// with b.mu held) and returns the channel closed when the world next goes
// quiet — at once if this rank was the last one busy.
func (w *World) wait(b *inbox) <-chan struct{} {
	w.lmu.Lock()
	defer w.lmu.Unlock()
	b.idle, b.epoch = true, w.epoch
	w.waiting++
	q := w.quiet
	w.stop()
	return q
}

// wake counts the waiting reader of b busy again: a put reached it (called
// with b.mu held). A reader already counted by the quiet it has not yet
// seen is not counted twice.
func (w *World) wake(b *inbox) {
	b.idle = false
	w.lmu.Lock()
	if b.epoch == w.epoch {
		w.busy.Add(1)
		w.waiting--
	}
	w.lmu.Unlock()
}

// told reports whether the world has gone quiet since the reader of b
// began to wait (called with b.mu held).
func (w *World) told(b *inbox) bool {
	w.lmu.Lock()
	defer w.lmu.Unlock()
	return b.epoch != w.epoch
}

// stop counts one busy rank out (called with lmu held). The last one makes
// the world quiet: the waiting ranks are counted busy, to act on it, and
// told.
func (w *World) stop() {
	if w.busy.Add(-1) > 0 {
		return
	}
	w.busy.Store(int64(w.waiting))
	w.waiting = 0
	w.epoch++
	close(w.quiet)
	w.quiet = make(chan struct{})
}

// message is one mailbox entry: the sending rank and what it sent.
type message struct {
	from int
	v    interface{}
}

// inbox is an unbounded FIFO with any number of senders and one reader,
// the rank that owns it. put never blocks, so no sender can be held up by
// a reader that is busy computing; messages of one sender stay in the
// order it sent them.
type inbox struct {
	mu   sync.Mutex
	q    []message
	head int
	// n is the number of queued messages, len(q)-head, for the reader to
	// poll without mu while it spins; spinning: the reader is counted in
	// World.spinning.
	n        atomic.Int64
	spinning atomic.Bool
	// idle: the reader waits in pull on an empty queue and is not counted
	// busy; epoch: the quiet number at which it last began to wait, -1
	// before its first wait (both written under World.lmu too). The put
	// that ends the wait counts it busy again (World.wake).
	idle  bool
	epoch int64
	// wake holds at most one token, left by a put: the reader, finding
	// the queue empty, sleeps on it, and a put between its look and its
	// sleep is not missed. A token left over from a message already read
	// costs one more look.
	wake chan struct{}
}

// put appends m to rank to's mailbox.
func (w *World) put(to int, m message) {
	b := &w.inbox[to]
	b.mu.Lock()
	b.q = append(b.q, m)
	b.n.Add(1)
	if b.idle {
		w.wake(b)
	}
	b.mu.Unlock()
	w.unspin(b)
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// pull takes the next message of rank id's mailbox, waiting for one. This
// is the one place a rank blocks on the fabric. It gives up, reporting
// false, when the world goes quiet while it waits: every rank waiting and
// nothing in flight, so no message can come. On an empty mailbox it first
// spins (World.poll), still counted busy, and only then waits.
func (w *World) pull(id int) (message, bool) {
	b := &w.inbox[id]
	var quiet <-chan struct{}
	spun := !w.spin
	for {
		b.mu.Lock()
		if quiet != nil && w.told(b) {
			// The quiet counted this rank busy to act on it, and it does,
			// before it reads what the other ranks' reaction to the same
			// quiet has put here since: every rank waiting at the quiet
			// fails its exchange, and none completes it with mail sent
			// after it.
			b.idle = false
			b.mu.Unlock()
			return message{}, false
		}
		if b.head < len(b.q) {
			m := b.q[b.head]
			b.q[b.head] = message{}
			if b.head++; b.head == len(b.q) {
				b.q, b.head = b.q[:0], 0
			}
			b.n.Add(-1)
			b.mu.Unlock()
			return m, true
		}
		if !b.idle {
			if !spun {
				spun = true
				b.mu.Unlock()
				w.poll(b)
				continue
			}
			quiet = w.wait(b)
		}
		b.mu.Unlock()
		select {
		case <-b.wake:
		case <-quiet:
		}
	}
}

// poll spins on b's queue count for at most spinPolls polls, returning
// early when a message is queued or when no other rank computes: then
// every rank waits or spins, and the one that would send has yet to be
// woken, or there is none and the world is about to go quiet. The caller
// is busy and stays so; it re-reads the queue under b.mu either way.
func (w *World) poll(b *inbox) {
	w.spinning.Add(1)
	b.spinning.Store(true)
	for i := 1; i <= spinPolls && b.n.Load() == 0 && w.busy.Load() > w.spinning.Load(); i++ {
		if i%spinYield == 0 {
			runtime.Gosched()
		}
	}
	w.unspin(b)
}

// unspin counts b's reader out of the spinning ranks, once: when it stops
// polling, or earlier, by the put that gives it a message — from then on
// it computes, and a peer that waits for its answer may spin.
func (w *World) unspin(b *inbox) {
	if b.spinning.CompareAndSwap(true, false) {
		w.spinning.Add(-1)
	}
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Run executes body as an SPMD region: one goroutine per rank, returning
// when all ranks have finished.
func (w *World) Run(body func(r *Rank)) {
	var wg sync.WaitGroup
	w.spin = w.size <= runtime.GOMAXPROCS(0)
	w.lmu.Lock()
	w.busy.Add(int64(w.size))
	w.lmu.Unlock()
	for id := 0; id < w.size; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				w.lmu.Lock()
				w.stop()
				w.lmu.Unlock()
			}()
			body(&Rank{ID: id, W: w})
		}(id)
	}
	wg.Wait()
}

// Rank is one member of a World, passed to the SPMD body.
type Rank struct {
	ID int
	W  *World

	// px is the one exchange in flight, reused by every exchange
	// (exchange.go).
	px PendingExchange

	// oob is the unexpected-message queue, one per source: messages pulled
	// from the mailbox before their receive was posted. A faster neighbour
	// may finish its exchange and move on to a collective while this rank
	// still waits for another, and a receive waiting on one source sees the
	// messages of the others first. take matches by source and takes from
	// here first, so per-source FIFO order holds.
	oob []fifo
}

// fifo is one source's queue of unexpected payloads; its storage is
// reused once it drains.
type fifo struct {
	q    []interface{}
	head int
}

func (f *fifo) push(v interface{}) { f.q = append(f.q, v) }

func (f *fifo) empty() bool { return f.head == len(f.q) }

func (f *fifo) pop() (interface{}, bool) {
	if f.empty() {
		return nil, false
	}
	v := f.q[f.head]
	f.q[f.head] = nil
	if f.head++; f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return v, true
}

// Send posts v to rank `to`; it never blocks.
func (r *Rank) Send(to int, v interface{}) {
	if to < 0 || to >= r.W.size {
		panic(fmt.Sprintf("comm: send to invalid rank %d", to))
	}
	r.W.put(to, message{from: r.ID, v: v})
}

// take returns the next message of rank `from`, queuing on the way what
// the other sources sent. It gives up, reporting false, when the world
// goes quiet first: the message can never come.
func (r *Rank) take(from int) (interface{}, bool) {
	if r.oob == nil {
		r.oob = make([]fifo, r.W.size)
	}
	if v, ok := r.oob[from].pop(); ok {
		return v, true
	}
	for {
		m, ok := r.W.pull(r.ID)
		if !ok {
			return nil, false
		}
		if m.from == from {
			return m.v, true
		}
		r.oob[m.from].push(m.v)
	}
}
