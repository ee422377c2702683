// Package comm provides the simulated distributed-memory substrate of
// this reproduction (see DESIGN.md): an SPMD "world" of rank goroutines
// with one mailbox each for point-to-point messaging and reductions, plus
// the Cartesian decomposition of the structured mesh among ranks (paper
// §II-D). The original pTatin3D runs one MPI rank per core; here ranks
// are goroutines in one address space, which preserves the communication
// structure (neighbour exchange, Ls/Lr material-point migration lists,
// collective reductions) at laptop scale.
package comm

import (
	"fmt"
	"sync"
)

// World is a fixed-size group of SPMD ranks.
type World struct {
	size int
	// inbox[to] is rank `to`'s one mailbox: every message for it, from
	// whichever rank, in arrival order.
	inbox []inbox

	// fault, when non-nil, injects failures into the reliable exchange
	// paths.
	fault *FaultPlan

	// fabric, when non-nil, prices every simulated interconnect
	// operation (halo message, allreduce, coarse gather) in modeled
	// nanoseconds, accumulated into fabric_* telemetry counters by the
	// Dist collectives. Pure accounting: no sleeps are injected, so
	// runs stay deterministic and fast while the modeled cost grows
	// with rank count the way a real fabric's would.
	fabric FabricModel

	// Liveness. busy counts the ranks that can still act: inside Run, not
	// waiting in pull on an empty mailbox, or told of a quiet they have not
	// yet acted on. A message for a waiting rank makes it busy again before
	// its sender can stop, so busy reaches 0 only when every rank waits or
	// is done and nothing is in flight: the world is quiet, nothing will
	// ever arrive. stop then counts the listeners (ranks waiting in pull
	// untilQuiet) busy, bumps epoch and closes quiet (replacing it) to
	// tell them. Lock order: an inbox's mu, then lmu.
	lmu       sync.Mutex
	busy      int
	listeners int
	epoch     int64
	quiet     chan struct{}
}

// Retries is the number of quiet rounds an exchange survives before it
// fails with *ExchangeError: the times the world may go quiet with it
// outstanding, each answered by one retransmission.
const Retries = 8

// NewWorld creates a world of n ranks.
func NewWorld(n int) *World {
	if n < 1 {
		panic("comm: world size must be >= 1")
	}
	w := &World{size: n, inbox: make([]inbox, n), quiet: make(chan struct{})}
	for to := range w.inbox {
		w.inbox[to].wake = make(chan struct{}, 1)
	}
	return w
}

// wait counts the reader of b, busy until now, as waiting in pull (called
// with b.mu held) and returns the channel closed when the world next goes
// quiet — at once if this rank was the last one busy.
func (w *World) wait(b *inbox, untilQuiet bool) <-chan struct{} {
	w.lmu.Lock()
	defer w.lmu.Unlock()
	b.idle, b.listen, b.epoch = true, untilQuiet, w.epoch
	if untilQuiet {
		w.listeners++
	}
	q := w.quiet
	w.stop()
	return q
}

// wake counts the waiting reader of b busy again: a put reached it (called
// with b.mu held). A listener already counted by the quiet it has not yet
// seen is not counted twice.
func (w *World) wake(b *inbox) {
	b.idle = false
	w.lmu.Lock()
	if !b.listen || b.epoch == w.epoch {
		w.busy++
		if b.listen {
			w.listeners--
		}
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
// the world quiet: the listeners are counted busy, to act on it, and told.
func (w *World) stop() {
	if w.busy--; w.busy > 0 {
		return
	}
	w.busy, w.listeners = w.listeners, 0
	w.epoch++
	close(w.quiet)
	w.quiet = make(chan struct{})
}

// message is one mailbox entry: the sending rank and what it sent, a
// protocol envelope or a collective's bare payload.
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
	// idle: the reader waits in pull on an empty queue and is not counted
	// busy; listen: it waits untilQuiet, since quiet number epoch (both
	// written under World.lmu too). The put that ends the wait counts it
	// busy again (World.wake).
	idle   bool
	listen bool
	epoch  int64
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
	if b.idle {
		w.wake(b)
	}
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// pull takes the next message of rank id's mailbox, waiting for one. This
// is the one place a rank blocks on the fabric. With untilQuiet it gives
// up, reporting false, when the world goes quiet while it waits: every
// rank waiting and nothing in flight, so no message can come. Without, it
// waits for ever (the collectives' receive).
func (w *World) pull(id int, untilQuiet bool) (message, bool) {
	b := &w.inbox[id]
	var quiet <-chan struct{}
	for {
		b.mu.Lock()
		if quiet != nil && w.told(b) {
			// The quiet counted this rank busy to act on it, and it does,
			// before it reads what the other ranks' reaction to the same
			// quiet has put here since: a rank kept busy by retransmissions
			// it cannot use would otherwise never send its own.
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
			b.mu.Unlock()
			return m, true
		}
		if !b.idle {
			if q := w.wait(b, untilQuiet); untilQuiet {
				quiet = q
			}
		}
		b.mu.Unlock()
		select {
		case <-b.wake:
		case <-quiet:
		}
	}
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// SetFaultPlan installs a fault injector on the reliable exchange paths.
// Must be called before Run; pass nil to disable injection.
func (w *World) SetFaultPlan(fp *FaultPlan) {
	w.fault = fp
	if fp != nil {
		fp.attach(w.size)
	}
}

// FabricModel prices simulated interconnect operations in nanoseconds.
// perfmodel.Fabric provides the standard α–β (latency/bandwidth)
// implementation.
type FabricModel interface {
	// MsgNs returns the modeled cost of one point-to-point message of
	// the given payload size.
	MsgNs(bytes int) int64
	// AllReduceNs returns the modeled cost of one allreduce of width
	// float64 values over the given rank count.
	AllReduceNs(ranks, width int) int64
}

// SetFabric installs an interconnect cost model consulted by the Dist
// collectives. Must be called before Run; pass nil to disable.
func (w *World) SetFabric(f FabricModel) { w.fabric = f }

// Run executes body as an SPMD region: one goroutine per rank, returning
// when all ranks have finished.
func (w *World) Run(body func(r *Rank)) {
	var wg sync.WaitGroup
	w.lmu.Lock()
	w.busy += w.size
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

	// Reliable-exchange state (see reliable.go): the per-rank exchange
	// sequence number, early-arrival stash, and retransmission history.
	// All ranks must issue reliable exchanges in the same collective
	// order for sequence numbers to align.
	seq   int64
	stash map[int]map[int64]envelope
	hist  map[int64]map[int]interface{}

	// oob is the unexpected-message queue, one per source: bare collective
	// payloads (AllReduce partials) pulled from the mailbox before their
	// receive was posted — a faster neighbour may finish its exchange and
	// move on to a collective while this rank is still retrying, and a
	// collective waiting on one source sees the payloads of the others
	// first. recv matches by source and takes from here, so per-source
	// FIFO order holds.
	oob map[int][]interface{}
}

// Send posts v to rank `to`; it never blocks.
func (r *Rank) Send(to int, v interface{}) {
	if to < 0 || to >= r.W.size {
		panic(fmt.Sprintf("comm: send to invalid rank %d", to))
	}
	r.W.put(to, message{from: r.ID, v: v})
}

// recv returns the next bare payload sent by rank `from`, waiting for it
// however long the world stays quiet (the collectives' receive). Whatever
// else arrives on the way is dispatched: protocol envelopes of any rank
// are answered or stashed, so a peer retransmitting into a rank that sits
// in a collective is served from here, and payloads of other sources are
// queued for their own recv.
func (r *Rank) recv(from int) interface{} {
	for {
		if q := r.oob[from]; len(q) > 0 {
			r.oob[from] = q[1:]
			return q[0]
		}
		m, _ := r.W.pull(r.ID, false)
		r.dispatch(nil, m)
	}
}
