package comm

import (
	"fmt"
	"time"

	"ptatin3d/internal/telemetry"
)

// The neighbour exchange is MPI's point-to-point pattern: each payload
// goes out with Send, and what a neighbour sent back is the next message
// from that source. The fabric delivers every message once, in the order
// its sender sent it, so per-source order plus the collective call order
// is the whole matching rule, the one the allreduce tree (allreduce.go)
// matches by too.
//
// The fabric's quiet is the deadlock guard. A Wait still missing a
// neighbour's message when every rank waits and nothing is in flight can
// never be served, so it returns *ExchangeError, naming the silent
// neighbours, instead of hanging. Only ranks that disagree on their
// neighbour lists or on the collective order get there.

// ExchangeError reports an exchange the world's quiet left incomplete:
// the neighbours whose message never came.
type ExchangeError struct {
	Rank    int
	Missing []int
}

// Error implements the error interface.
func (e *ExchangeError) Error() string {
	return fmt.Sprintf("comm: rank %d exchange stalled with the world quiet (no message from %v)", e.Rank, e.Missing)
}

// PayloadError reports a message of the wrong kind: rank Rank took from
// Source a payload of type Got where its exchange expected Want. Ranks
// that disagree on the collective order get it when one collective's
// payload is taken by another before the world goes quiet.
type PayloadError struct {
	Rank, Source int
	Got, Want    string
}

// Error implements the error interface.
func (e *PayloadError) Error() string {
	return fmt.Sprintf("comm: rank %d took a %s from rank %d where a %s was due (ranks disagree on the collective order)", e.Rank, e.Got, e.Source, e.Want)
}

// payloadAs returns v, the message rank took from src, as a T, or a
// *PayloadError when it holds something else.
func payloadAs[T any](rank, src int, v interface{}) (T, error) {
	p, ok := v.(T)
	if !ok {
		return p, &PayloadError{Rank: rank, Source: src, Got: fmt.Sprintf("%T", v), Want: fmt.Sprintf("%T", p)}
	}
	return p, nil
}

// PendingExchange is a neighbour exchange whose payloads are sent but
// whose replies are not yet taken. The caller may compute between
// StartExchange and Wait. This is the §II-D latency-hiding pattern:
// apply the subdomain-boundary elements, start the halo exchange, apply
// the interior elements while the messages are in flight, then Wait. A
// rank has one, reused by each of its exchanges, so an exchange
// allocates nothing once the rank has run one as wide.
type PendingExchange struct {
	r        *Rank
	sc       *telemetry.Scope
	telStart time.Time
	nbrs     []int
	got      []interface{} // by neighbour index
}

// StartExchange sends payload[i] to neighbors[i] and returns without
// waiting for the replies. Every rank of an exchange must list the others
// that list it, and issue its exchanges and collectives in the same order
// towards each of them. Each StartExchange must be Wait-ed before the rank
// issues another. The payloads travel by reference: the sender must not
// rewrite one before the receiver is done with it (haloSlots). sc, when
// non-nil, accumulates an "exchange" timer, whose calls count the
// exchanges.
func (r *Rank) StartExchange(neighbors []int, payload []interface{}, sc *telemetry.Scope) *PendingExchange {
	px := &r.px
	*px = PendingExchange{
		r: r, sc: sc,
		telStart: sc.Timer("exchange").Start(),
		nbrs:     neighbors,
		got:      clearN(px.got, len(neighbors)),
	}
	for i, n := range neighbors {
		r.Send(n, payload[i])
	}
	return px
}

// clearN returns s resized to k nil entries, reusing its storage.
func clearN(s []interface{}, k int) []interface{} {
	if cap(s) < k {
		return make([]interface{}, k)
	}
	s = s[:k]
	clear(s)
	return s
}

// Wait takes the next message of each neighbour and returns them, got[i]
// from neighbors[i] of StartExchange. The slice is the rank's own and
// holds until its next exchange. A peer that is slow or computing is
// waited for; only the world's quiet ends the wait early, with a typed
// *ExchangeError.
func (px *PendingExchange) Wait() ([]interface{}, error) {
	r := px.r
	for i, n := range px.nbrs {
		v, ok := r.take(n)
		if !ok {
			err := &ExchangeError{Rank: r.ID}
			for _, m := range px.nbrs[i:] {
				if r.oob[m].empty() {
					err.Missing = append(err.Missing, m)
				}
			}
			return nil, err
		}
		px.got[i] = v
	}
	px.sc.Timer("exchange").Stop(px.telStart)
	return px.got, nil
}
