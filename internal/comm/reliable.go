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
// fabric. The envelope travels inline in the mailbox entry.
func (r *Rank) sendEnvelope(to int, env envelope) {
	if fp := r.W.fault; fp != nil {
		var deliver bool
		env, deliver = fp.filter(r.ID, env)
		if !deliver {
			return
		}
	}
	if to < 0 || to >= r.W.size {
		panic(fmt.Sprintf("comm: send to invalid rank %d", to))
	}
	r.W.put(to, message{from: r.ID, isEnv: true, env: env})
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

// histDepth is how many exchanges the retransmission history keeps: the
// current one and the three before it.
const histDepth = 4

// sentRecord is one exchange of the retransmission history: what went to
// each neighbour. The slices are the record's own, reused round the ring.
type sentRecord struct {
	ok      bool
	seq     int64
	nbrs    []int
	payload []interface{}
}

// rememberSent records the payloads of exchange seq (payload[i] went to
// neighbors[i]) for retransmission service, in the ring slot of the
// exchange histDepth ago, which it prunes.
func (r *Rank) rememberSent(seq int64, neighbors []int, payload []interface{}) {
	h := &r.hist[seq%histDepth]
	h.ok, h.seq = true, seq
	h.nbrs = append(h.nbrs[:0], neighbors...)
	h.payload = append(h.payload[:0], payload...)
}

// sent returns what exchange seq sent to rank n, if the history still
// holds the exchange.
func (r *Rank) sent(seq int64, n int) (interface{}, bool) {
	h := &r.hist[seq%histDepth]
	if !h.ok || h.seq != seq {
		return nil, false
	}
	for i, m := range h.nbrs {
		if m == n {
			return h.payload[i], true
		}
	}
	return nil, true
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
// "exchange" timer. This is the keyed form of StartExchange and Wait, for
// callers that build their payloads afresh (point migration).
func (r *Rank) ExchangeReliable(neighbors []int, payload map[int]interface{}, sc *telemetry.Scope) (map[int]interface{}, error) {
	out := make([]interface{}, len(neighbors))
	for i, n := range neighbors {
		out[i] = payload[n]
	}
	got, err := r.StartExchange(neighbors, out, sc).Wait()
	if err != nil {
		return nil, err
	}
	recv := make(map[int]interface{}, len(neighbors))
	for i, n := range neighbors {
		recv[n] = got[i]
	}
	return recv, nil
}

// PendingExchange is a reliable exchange whose first transmission is in
// flight: StartExchange has sent the payloads (and adopted any stashed
// early arrivals), but the receive/retry loop has not run. The caller
// may compute between StartExchange and Wait — this is the §II-D
// latency-hiding pattern: apply the subdomain-boundary elements, start
// the halo exchange, apply the interior elements while messages are in
// flight, then Wait. A rank has one, reused by each of its exchanges, so
// an exchange allocates nothing once the rank has run one as wide.
type PendingExchange struct {
	r        *Rank
	sc       *telemetry.Scope
	seq      int64
	telStart time.Time

	nbrs     []int
	got      []interface{} // by neighbour index
	pending  []bool        // awaiting data from nbrs[i]
	unacked  []bool        // awaiting an ack from nbrs[i]
	npending int
	nunacked int
}

// StartExchange begins a reliable neighbour exchange and returns without
// waiting for the replies: payload[i] goes to neighbors[i], stashed early
// arrivals are adopted, and everything else is deferred to Wait. The
// collective-order and symmetric-neighbour requirements of
// ExchangeReliable apply; each StartExchange must be Wait-ed before the
// rank issues another exchange. The history keeps its own copy of the
// payload list, not of what the payloads point to: a caller that reuses
// a payload's storage must not rewrite it while the last histDepth
// exchanges may still be asked to resend it.
func (r *Rank) StartExchange(neighbors []int, payload []interface{}, sc *telemetry.Scope) *PendingExchange {
	px := &r.px
	k := len(neighbors)
	*px = PendingExchange{
		r: r, sc: sc,
		telStart: sc.Timer("exchange").Start(),
		nbrs:     neighbors,
		got:      clearN(px.got, k),
		pending:  setN(px.pending, k),
		unacked:  setN(px.unacked, k),
		npending: k, nunacked: k,
	}
	px.seq = r.seq
	r.seq++
	if fp := r.W.fault; fp != nil {
		fp.maybeStall(r.ID, px.seq)
	}
	r.rememberSent(px.seq, neighbors, payload)
	// Adopt data that arrived early (stashed during a previous exchange).
	for _, n := range neighbors {
		if env, ok := r.stashTake(n, px.seq); ok {
			px.accept(env)
		}
	}
	// First transmission.
	for i, n := range neighbors {
		r.sendEnvelope(n, r.dataEnvelope(px.seq, payload[i]))
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

// setN returns s resized to k true entries, reusing its storage.
func setN(s []bool, k int) []bool {
	if cap(s) < k {
		s = make([]bool, k)
	}
	s = s[:k]
	for i := range s {
		s[i] = true
	}
	return s
}

// index returns the position of rank n in the exchange's neighbour list,
// or -1.
func (px *PendingExchange) index(n int) int {
	for i, m := range px.nbrs {
		if m == n {
			return i
		}
	}
	return -1
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
	if i := px.index(env.From); i >= 0 && px.pending[i] {
		px.got[i] = env.Payload
		px.pending[i] = false
		px.npending--
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
	if !m.isEnv {
		if r.oob == nil {
			r.oob = make([]fifo, r.W.size)
		}
		r.oob[m.from].push(m.v)
		return
	}
	env := m.env
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
			if i := px.index(env.From); i >= 0 && px.unacked[i] {
				px.unacked[i] = false
				px.nunacked--
			}
		}
	case envResend:
		if sent, ok := r.sent(env.Seq, env.From); ok {
			sc.Counter("resends_served").Inc()
			r.sendEnvelope(env.From, r.dataEnvelope(env.Seq, sent))
		}
	}
}

// Wait runs the receive/retry loop to completion and returns the
// verified payloads, got[i] from neighbors[i] of StartExchange (or a
// typed *ExchangeError once the retry budget is exhausted). The slice is
// the rank's own and holds until its next exchange. Wait pulls and
// dispatches whatever arrives on the rank's one mailbox, from whichever
// rank, until nothing of this exchange is outstanding. A peer that is
// slow, computing or stalled is waited for; only when the whole world has
// gone quiet with the exchange still outstanding — a message lost, not
// late — does it retransmit. It gives up at the quiet after its
// Retries-th retransmission.
func (px *PendingExchange) Wait() ([]interface{}, error) {
	r, sc := px.r, px.sc
	attempts := 0
	for {
		for px.npending > 0 || px.nunacked > 0 {
			m, ok := r.W.pull(r.ID, true)
			if !ok {
				break
			}
			r.dispatch(px, m)
		}
		if px.npending == 0 && px.nunacked == 0 {
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
		for i, n := range px.nbrs {
			if !px.unacked[i] {
				continue
			}
			if sent, ok := r.sent(px.seq, n); ok {
				r.sendEnvelope(n, r.dataEnvelope(px.seq, sent))
			}
		}
		for i, n := range px.nbrs {
			if px.pending[i] {
				r.sendEnvelope(n, envelope{Kind: envResend, Seq: px.seq, From: r.ID})
			}
		}
	}
	sc.Timer("exchange").Stop(px.telStart)
	sc.Counter("exchange_failures").Inc()
	err := &ExchangeError{Rank: r.ID, Seq: px.seq, Attempts: attempts + 1}
	for i, n := range px.nbrs {
		if px.pending[i] {
			err.MissingData = append(err.MissingData, n)
		}
		if px.unacked[i] {
			err.MissingAcks = append(err.MissingAcks, n)
		}
	}
	sort.Ints(err.MissingData)
	sort.Ints(err.MissingAcks)
	return nil, err
}
