// Package comm provides the simulated distributed-memory substrate of
// this reproduction (see DESIGN.md): an SPMD "world" of rank goroutines
// with channel-based point-to-point messaging, barriers and reductions,
// plus the Cartesian decomposition of the structured mesh among ranks
// (paper §II-D). The original pTatin3D runs one MPI rank per core; here
// ranks are goroutines in one address space, which preserves the
// communication structure (neighbour exchange, Ls/Lr material-point
// migration lists, collective reductions) at laptop scale.
package comm

import (
	"fmt"
	"sync"
)

// World is a fixed-size group of SPMD ranks.
type World struct {
	size int
	// mail[to][from] carries messages from rank `from` to rank `to`.
	mail [][]chan interface{}

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
	w := &World{size: n}
	w.mail = make([][]chan interface{}, n)
	for to := 0; to < n; to++ {
		w.mail[to] = make([]chan interface{}, n)
		for from := 0; from < n; from++ {
			w.mail[to][from] = make(chan interface{}, 64)
		}
	}
	w.bcond = sync.NewCond(&w.bmu)
	return w
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

	// oob queues non-protocol messages (bare collective payloads such as
	// AllReduce partials) that the reliable-exchange receive loop pulled
	// out of the mailbox while draining envelopes: a faster neighbour may
	// finish its exchange and move on to a collective while this rank is
	// still retrying. recvSkipEnvelopes returns queued messages before
	// reading the mailbox, preserving per-source FIFO order.
	oob map[int][]interface{}
}

// oobPut queues a non-protocol message for a later recvSkipEnvelopes.
func (r *Rank) oobPut(from int, v interface{}) {
	if r.oob == nil {
		r.oob = map[int][]interface{}{}
	}
	r.oob[from] = append(r.oob[from], v)
}

// Policy returns the world's retry policy (DefaultRetryPolicy if unset).
func (r *Rank) Policy() RetryPolicy {
	if r.W.policy == (RetryPolicy{}) {
		return DefaultRetryPolicy()
	}
	return r.W.policy
}

// Send posts v to rank `to` (buffered, non-blocking up to the buffer).
func (r *Rank) Send(to int, v interface{}) {
	if to < 0 || to >= r.W.size {
		panic(fmt.Sprintf("comm: send to invalid rank %d", to))
	}
	r.W.mail[to][r.ID] <- v
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

// strayEnvelope answers a protocol envelope received outside any active
// exchange (during a raw collective, or from a rank that is not a
// neighbour of the current exchange). Mirrors PendingExchange.handle
// for a rank with no exchange in flight: early data is stashed for the
// next exchange to adopt, late retransmissions are re-acked — the peer
// missed our ack and would otherwise burn its whole retry budget
// against our silence — and resend requests are served from the send
// history. Stale acks need no action.
func (r *Rank) strayEnvelope(env envelope) {
	switch env.Kind {
	case envData:
		if env.Seq >= r.seq {
			r.stashPut(env)
		} else {
			r.sendEnvelope(env.From, envelope{Kind: envAck, Seq: env.Seq, From: r.ID})
		}
	case envResend:
		if sent, ok := r.hist[env.Seq]; ok {
			r.sendEnvelope(env.From, r.dataEnvelope(env.Seq, sent[env.From]))
		}
	}
}

// drainStray empties every other rank's mailbox without blocking
// (except skip, which the caller is receiving from directly), answering
// protocol envelopes via strayEnvelope and queueing bare payloads for a
// later receive. Called while a rank lingers in a raw collective so that
// retransmitting peers — who may not be neighbours of any current
// exchange and whose mailboxes nothing else drains — still make
// progress (found by the 64-rank fault-injection soak: round-varying
// neighbour graphs starve a retransmitter whose ack was dropped).
func (r *Rank) drainStray(skip int) {
	for from := 0; from < r.W.size; from++ {
		if from == r.ID || from == skip {
			continue
		}
		for {
			var v interface{}
			ok := false
			select {
			case v = <-r.W.mail[r.ID][from]:
				ok = true
			default:
			}
			if !ok {
				break
			}
			if env, isEnv := v.(envelope); isEnv {
				r.strayEnvelope(env)
			} else {
				r.oobPut(from, v)
			}
		}
	}
}

// recvSkipEnvelopes receives from rank `from`, answering (or stashing)
// reliable-exchange protocol envelopes that a late or retransmitting
// exchange may interleave with raw collective traffic, so mixed use of
// the collectives and the hardened exchange paths cannot mistype a
// message — or starve a peer. While blocked on `from` it periodically
// drains every other mailbox: a rank can sit in a tree allreduce for a
// long time, and peers retransmitting into it (lost ack, corrupt
// payload) must be answered from here or they exhaust their retries.
func (r *Rank) recvSkipEnvelopes(from int) interface{} {
	for {
		var v interface{}
		if q := r.oob[from]; len(q) > 0 {
			v = q[0]
			r.oob[from] = q[1:]
		} else {
			var ok bool
			v, ok = r.RecvTimeout(from, strayPollInterval)
			if !ok {
				r.drainStray(from)
				continue
			}
		}
		env, isEnv := v.(envelope)
		if !isEnv {
			return v
		}
		r.strayEnvelope(env)
	}
}
