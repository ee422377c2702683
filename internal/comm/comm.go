// Package comm provides the simulated distributed-memory substrate of
// this reproduction (see DESIGN.md): an SPMD "world" of rank goroutines
// with one mailbox each for point-to-point messaging, barriers and
// reductions, plus the Cartesian decomposition of the structured mesh
// among ranks (paper §II-D). The original pTatin3D runs one MPI rank per
// core; here ranks are goroutines in one address space, which preserves
// the communication structure (neighbour exchange, Ls/Lr material-point
// migration lists, collective reductions) at laptop scale.
package comm

import (
	"fmt"
	"sync"
	"time"
)

// World is a fixed-size group of SPMD ranks.
type World struct {
	size int
	// inbox[to] is rank `to`'s one mailbox: every message for it, from
	// whichever rank, in arrival order.
	inbox []inbox

	// fault, when non-nil, injects failures into the reliable exchange
	// paths; policy bounds their retry/timeout behaviour.
	fault  *FaultPlan
	policy RetryPolicy

	// fabric, when non-nil, prices every simulated interconnect
	// operation (halo message, allreduce, coarse gather) in modeled
	// nanoseconds, accumulated into fabric_* telemetry counters by the
	// Dist collectives. Pure accounting: no sleeps are injected, so
	// runs stay deterministic and fast while the modeled cost grows
	// with rank count the way a real fabric's would.
	fabric FabricModel

	bmu    sync.Mutex
	bcond  *sync.Cond
	bcount int
	bphase int
}

// NewWorld creates a world of n ranks.
func NewWorld(n int) *World {
	if n < 1 {
		panic("comm: world size must be >= 1")
	}
	w := &World{size: n, inbox: make([]inbox, n)}
	for to := range w.inbox {
		w.inbox[to].wake = make(chan struct{}, 1)
	}
	w.bcond = sync.NewCond(&w.bmu)
	return w
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
	// wake holds at most one token, left by a put: the reader, finding
	// the queue empty, sleeps on it, and a put between its look and its
	// sleep is not missed. A token left over from a message already read
	// costs one more look.
	wake chan struct{}
}

func (b *inbox) put(m message) {
	b.mu.Lock()
	b.q = append(b.q, m)
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// pull takes the next message, waiting for one until the deadline (the
// zero deadline: for ever). This is the one place a rank blocks on the
// fabric. It looks at the queue once more after the deadline fires, so a
// put that races the timer is delivered, not reported as silence.
func (b *inbox) pull(deadline time.Time) (message, bool) {
	var expired <-chan time.Time
	timedOut := false
	for {
		b.mu.Lock()
		if b.head < len(b.q) {
			m := b.q[b.head]
			b.q[b.head] = message{}
			if b.head++; b.head == len(b.q) {
				b.q, b.head = b.q[:0], 0
			}
			b.mu.Unlock()
			return m, true
		}
		b.mu.Unlock()
		if timedOut {
			return message{}, false
		}
		if expired == nil && !deadline.IsZero() {
			t := time.NewTimer(time.Until(deadline))
			defer t.Stop()
			expired = t.C
		}
		select {
		case <-b.wake:
		case <-expired:
			timedOut = true
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

// SetRetryPolicy sets the default retry policy used by exchange callers
// that consult Rank.Policy. The zero policy means DefaultRetryPolicy.
func (w *World) SetRetryPolicy(p RetryPolicy) { w.policy = p }

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
	for id := 0; id < w.size; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
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

// Policy returns the world's retry policy (DefaultRetryPolicy if unset).
func (r *Rank) Policy() RetryPolicy {
	if r.W.policy == (RetryPolicy{}) {
		return DefaultRetryPolicy()
	}
	return r.W.policy
}

// Send posts v to rank `to`; it never blocks.
func (r *Rank) Send(to int, v interface{}) {
	if to < 0 || to >= r.W.size {
		panic(fmt.Sprintf("comm: send to invalid rank %d", to))
	}
	r.W.inbox[to].put(message{from: r.ID, v: v})
}

// Barrier blocks until every rank has entered it.
func (r *Rank) Barrier() {
	w := r.W
	w.bmu.Lock()
	phase := w.bphase
	w.bcount++
	if w.bcount == w.size {
		w.bcount = 0
		w.bphase++
		w.bcond.Broadcast()
	} else {
		for phase == w.bphase {
			w.bcond.Wait()
		}
	}
	w.bmu.Unlock()
}

// recv returns the next bare payload sent by rank `from`, waiting until
// the deadline (the zero deadline: for ever — what the collectives pass).
// Whatever else arrives on the way is dispatched: protocol envelopes of
// any rank are answered or stashed, so a peer retransmitting into a rank
// that sits in a collective is served from here, and payloads of other
// sources are queued for their own recv.
func (r *Rank) recv(from int, deadline time.Time) (interface{}, bool) {
	for {
		if q := r.oob[from]; len(q) > 0 {
			r.oob[from] = q[1:]
			return q[0], true
		}
		m, ok := r.W.inbox[r.ID].pull(deadline)
		if !ok {
			return nil, false
		}
		r.dispatch(nil, m)
	}
}
