package comm

import (
	"fmt"
	"sort"
	"time"

	"ptatin3d/internal/telemetry"
)

// The reliable neighbour exchange hardens the halo-exchange and
// point-migration paths against the fault model of FaultPlan: every
// payload travels in a sequence-numbered envelope with an optional
// checksum; receivers acknowledge accepted data, dedupe retransmissions,
// and request resends for missing or corrupt payloads; senders keep a
// short retransmission history. Liveness comes from the fabric, not from a
// clock: an exchange retransmits only when the world has gone quiet (every
// rank waiting, nothing in flight), which a rank that is merely computing
// or stalled never causes. Each quiet round costs one unit of the retry
// budget, so a fabric that loses everything surfaces as a typed
// *ExchangeError instead of a deadlock — the caller aborts the step.

// envKind discriminates protocol messages.
type envKind uint8

const (
	envData envKind = iota
	envAck
	envResend
)

// envelope is the wire frame of the reliable exchange.
type envelope struct {
	Kind    envKind
	Seq     int64
	From    int
	Sum     uint64
	HasSum  bool
	Payload interface{}
}

// ExchangeError reports an exchange that could not complete within its
// retry budget: the neighbours whose data never (verifiably) arrived and
// the neighbours that never acknowledged ours.
type ExchangeError struct {
	Rank        int
	Seq         int64
	MissingData []int
	MissingAcks []int
	Attempts    int
}

// Error implements the error interface.
func (e *ExchangeError) Error() string {
	return fmt.Sprintf("comm: rank %d exchange %d failed after %d attempts (missing data from %v, missing acks from %v)",
		e.Rank, e.Seq, e.Attempts, e.MissingData, e.MissingAcks)
}

// sendEnvelope routes env through the fault plan (if any) and the mail
// fabric.
func (r *Rank) sendEnvelope(to int, env envelope) {
	if fp := r.W.fault; fp != nil {
		var deliver bool
		env, deliver = fp.filter(r.ID, env)
		if !deliver {
			return
		}
	}
	r.Send(to, env)
}

// dataEnvelope frames a payload, stamping a checksum when supported.
func (r *Rank) dataEnvelope(seq int64, payload interface{}) envelope {
	env := envelope{Kind: envData, Seq: seq, From: r.ID, Payload: payload}
	if cs, ok := payload.(Checksummer); ok {
		env.Sum = cs.Checksum64()
		env.HasSum = true
	}
	return env
}

// rememberSent records the payload map for retransmission service and
// prunes history older than a few exchanges.
func (r *Rank) rememberSent(seq int64, payload map[int]interface{}) {
	if r.hist == nil {
		r.hist = map[int64]map[int]interface{}{}
	}
	r.hist[seq] = payload
	for s := range r.hist {
		if s < seq-3 {
			delete(r.hist, s)
		}
	}
}

// stashPut stores a data envelope that belongs to a future exchange.
func (r *Rank) stashPut(env envelope) {
	if r.stash == nil {
		r.stash = map[int]map[int64]envelope{}
	}
	if r.stash[env.From] == nil {
		r.stash[env.From] = map[int64]envelope{}
	}
	r.stash[env.From][env.Seq] = env
}

// stashTake retrieves (and removes) a stashed data envelope.
func (r *Rank) stashTake(from int, seq int64) (envelope, bool) {
	m := r.stash[from]
	if m == nil {
		return envelope{}, false
	}
	env, ok := m[seq]
	if ok {
		delete(m, seq)
	}
	return env, ok
}

// verifySum checks a data envelope's checksum against its payload.
func verifySum(env envelope) bool {
	if !env.HasSum {
		return true
	}
	cs, ok := env.Payload.(Checksummer)
	if !ok {
		return false
	}
	return cs.Checksum64() == env.Sum
}

// ExchangeReliable performs a neighbour exchange with retransmission:
// each rank sends payload[n] to every neighbour n and returns the
// verified payloads received from each, keyed by source. It tolerates
// the FaultPlan fault model — dropped,
// delayed and corrupted envelopes and stalled peers — recovering via
// acknowledgements, checksums and bounded retries, and it never
// deadlocks: when the retry budget is exhausted it returns a typed
// *ExchangeError and the caller must abort the operation.
//
// All ranks must call it collectively with symmetric neighbour lists and
// in the same collective order (the per-rank sequence number identifies
// the exchange). sc, when non-nil, accumulates exchange telemetry:
// "exchanges"/"retries"/"resends_served"/"corrupt_rejected"/
// "duplicates"/"recovered_exchanges"/"exchange_failures" counters and an
// "exchange" timer.
func (r *Rank) ExchangeReliable(neighbors []int, payload map[int]interface{}, sc *telemetry.Scope) (map[int]interface{}, error) {
	return r.StartExchange(neighbors, payload, sc).Wait()
}

// PendingExchange is a reliable exchange whose first transmission is in
// flight: StartExchange has sent the payloads (and adopted any stashed
// early arrivals), but the receive/retry loop has not run. The caller
// may compute between StartExchange and Wait — this is the §II-D
// latency-hiding pattern: apply the subdomain-boundary elements, start
// the halo exchange, apply the interior elements while messages are in
// flight, then Wait.
type PendingExchange struct {
	r        *Rank
	sc       *telemetry.Scope
	seq      int64
	telStart time.Time

	got     map[int]interface{}
	pending map[int]bool // awaiting data from
	unacked map[int]bool // awaiting ack from
}

// StartExchange begins a reliable neighbour exchange and returns without
// waiting for the replies: the payloads are transmitted, stashed early
// arrivals are adopted, and everything else is deferred to Wait. The
// collective-order and symmetric-neighbour requirements of
// ExchangeReliable apply; each StartExchange must be Wait-ed before the
// rank issues another exchange.
func (r *Rank) StartExchange(neighbors []int, payload map[int]interface{}, sc *telemetry.Scope) *PendingExchange {
	px := &PendingExchange{
		r: r, sc: sc,
		telStart: sc.Timer("exchange").Start(),
		got:      make(map[int]interface{}, len(neighbors)),
		pending:  make(map[int]bool, len(neighbors)),
		unacked:  make(map[int]bool, len(neighbors)),
	}
	px.seq = r.seq
	r.seq++
	if fp := r.W.fault; fp != nil {
		fp.maybeStall(r.ID, px.seq)
	}
	r.rememberSent(px.seq, payload)
	for _, n := range neighbors {
		px.pending[n] = true
		px.unacked[n] = true
	}
	// Adopt data that arrived early (stashed during a previous exchange).
	for _, n := range neighbors {
		if env, ok := r.stashTake(n, px.seq); ok {
			px.accept(env)
		}
	}
	// First transmission.
	for _, n := range neighbors {
		r.sendEnvelope(n, r.dataEnvelope(px.seq, payload[n]))
	}
	return px
}

// accept takes a data envelope for this exchange: verify, record, ack.
func (px *PendingExchange) accept(env envelope) {
	r := px.r
	if !verifySum(env) {
		px.sc.Counter("corrupt_rejected").Inc()
		// Ask for a pristine copy right away.
		r.sendEnvelope(env.From, envelope{Kind: envResend, Seq: env.Seq, From: r.ID})
		return
	}
	if px.pending[env.From] {
		px.got[env.From] = env.Payload
		delete(px.pending, env.From)
	} else {
		px.sc.Counter("duplicates").Inc()
	}
	r.sendEnvelope(env.From, envelope{Kind: envAck, Seq: env.Seq, From: r.ID})
}

// dispatch handles one message pulled from the rank's mailbox, whoever
// sent it: px is the exchange in flight, nil when the rank is inside a
// collective instead. A bare payload joins its source's queue for the
// collective's recv. Data of the exchange in flight is accepted; data of
// an older one is a late retransmission — the peer missed our ack and
// would otherwise burn its whole retry budget against our silence — and
// is re-acked; data of a later one is stashed for StartExchange to adopt.
// Resend requests are served from the send history. An ack counts for the
// exchange in flight only; a stale one needs no action.
func (r *Rank) dispatch(px *PendingExchange, m message) {
	env, ok := m.v.(envelope)
	if !ok {
		if r.oob == nil {
			r.oob = map[int][]interface{}{}
		}
		r.oob[m.from] = append(r.oob[m.from], m.v)
		return
	}
	var sc *telemetry.Scope
	if px != nil {
		sc = px.sc
	}
	switch env.Kind {
	case envData:
		switch {
		case px != nil && env.Seq == px.seq:
			px.accept(env)
		case env.Seq < r.seq:
			sc.Counter("duplicates").Inc()
			r.sendEnvelope(env.From, envelope{Kind: envAck, Seq: env.Seq, From: r.ID})
		default:
			r.stashPut(env)
		}
	case envAck:
		if px != nil && env.Seq == px.seq {
			delete(px.unacked, env.From)
		}
	case envResend:
		if sent, ok := r.hist[env.Seq]; ok {
			sc.Counter("resends_served").Inc()
			r.sendEnvelope(env.From, r.dataEnvelope(env.Seq, sent[env.From]))
		}
	}
}

// Wait runs the receive/retry loop to completion and returns the
// verified payloads keyed by source (or a typed *ExchangeError once the
// retry budget is exhausted). It pulls and dispatches whatever arrives on
// the rank's one mailbox, from whichever rank, until nothing of this
// exchange is outstanding. A peer that is slow, computing or stalled is
// waited for; only when the whole world has gone quiet with the exchange
// still outstanding — a message lost, not late — does it retransmit. It
// gives up at the quiet after its Retries-th retransmission.
func (px *PendingExchange) Wait() (map[int]interface{}, error) {
	r, sc := px.r, px.sc
	attempts := 0
	for {
		for len(px.pending) > 0 || len(px.unacked) > 0 {
			m, ok := r.W.pull(r.ID, true)
			if !ok {
				break
			}
			r.dispatch(px, m)
		}
		if len(px.pending) == 0 && len(px.unacked) == 0 {
			sc.Timer("exchange").Stop(px.telStart)
			sc.Counter("exchanges").Inc()
			if attempts > 0 {
				sc.Counter("recovered_exchanges").Inc()
			}
			return px.got, nil
		}
		if attempts == Retries {
			break
		}
		attempts++
		sc.Counter("retries").Inc()
		// Retransmit our data to neighbours that have not acked, and
		// request resends from neighbours we have not heard from.
		for n := range px.unacked {
			if sent, ok := r.hist[px.seq]; ok {
				r.sendEnvelope(n, r.dataEnvelope(px.seq, sent[n]))
			}
		}
		for n := range px.pending {
			r.sendEnvelope(n, envelope{Kind: envResend, Seq: px.seq, From: r.ID})
		}
	}
	sc.Timer("exchange").Stop(px.telStart)
	sc.Counter("exchange_failures").Inc()
	err := &ExchangeError{Rank: r.ID, Seq: px.seq, Attempts: attempts + 1}
	for n := range px.pending {
		err.MissingData = append(err.MissingData, n)
	}
	for n := range px.unacked {
		err.MissingAcks = append(err.MissingAcks, n)
	}
	sort.Ints(err.MissingData)
	sort.Ints(err.MissingAcks)
	return nil, err
}
