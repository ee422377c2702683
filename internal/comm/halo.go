package comm

import (
	"fmt"
	"math"
	"slices"

	"ptatin3d/internal/la"
	"ptatin3d/internal/telemetry"
)

// Dist bundles a rank with a Layout into the per-rank handle of the
// distributed vector layer: owner-reduce/broadcast halo exchanges,
// deterministic rank-ordered AllReduce for dot products, and
// gather/broadcast collectives for the coarse solve. All methods are
// rank-collective: every rank of the world must call them in the same
// order with layouts of the same Decomp. Each returns its failure to the
// caller and records it on the rank (Rank.Err).
//
// Telemetry (Sc nilable): "halo_msgs"/"halo_bytes" counters for
// exchanged packets (8 bytes per value), the "allreduce" timer of
// reductions and the "exchange" timer of StartExchange. A timer's calls
// are the count of its collective; no counter repeats them.
//
// A Dist outlives the world it was built in: point R at the rank of each
// new world (Attach) and the handle runs its exchanges there. Every packet
// it sends is one of its own persistent buffers, recycled round a ring of
// haloSlots per (neighbour, direction) — MPI's persistent requests — so a
// steady exchange allocates nothing.
type Dist struct {
	R  *Rank
	L  *Layout
	Sc *telemetry.Scope

	partials, owners haloRing // ReduceBroadcast's partial sums, Broadcast's owner values
	ar               reduceBufs
	gather           gatherBufs
}

// haloSlots is how many exchanges a packet buffer sits out before it is
// rewritten, sized by the receiver. A slot goes to a peer in one exchange
// on its ring and is rewritten two exchanges later on the same ring, only
// after this rank has received the peer's message of the exchange between.
// The peer sends that only after it has consumed the slot, since every
// receiver unpacks what an exchange brought before it starts its next
// one.
const haloSlots = 2

// haloRing is one direction's packets: slot k of neighbour i is
// pk[k][i], slot next%haloSlots packs the next exchange, and payload is
// the list handed to it.
type haloRing struct {
	next    int
	pk      [haloSlots][]haloPacket
	payload []interface{}
}

// pack fills the next slot's packets with y's entries on lists[n] for
// each neighbour n of the layout, counts them, and returns the payload
// list.
func (d *Dist) pack(h *haloRing, lists map[int][]la.Span, y []float64) []interface{} {
	nb := d.L.Neighbors
	if len(h.payload) != len(nb) {
		for k := range h.pk {
			h.pk[k] = make([]haloPacket, len(nb))
		}
		h.payload = make([]interface{}, len(nb))
	}
	pks := h.pk[h.next%haloSlots]
	h.next++
	for i, n := range nb {
		pk := &pks[i]
		pk.Val = appendSpans(pk.Val[:0], lists[n], y)
		h.payload[i] = pk
		d.countPacket(pk)
	}
	return h.payload
}

// appendSpans appends y's entries on spans, in span order, to dst,
// growing it once to hold them all.
func appendSpans(dst []float64, spans []la.Span, y []float64) []float64 {
	dst = slices.Grow(dst, la.SpansLen(spans))
	for _, sp := range spans {
		dst = append(dst, y[sp.Lo:sp.Hi]...)
	}
	return dst
}

// NewDist builds rank r's distributed-vector handle over layout l.
func NewDist(r *Rank, l *Layout, sc *telemetry.Scope) *Dist {
	return &Dist{R: r, L: l, Sc: sc}
}

// Attach points the handle at rank r of a new world. Its buffers stay.
func (d *Dist) Attach(r *Rank) { d.R = r }

// countPacket accounts one outgoing halo packet.
func (d *Dist) countPacket(pk *haloPacket) {
	d.Sc.Counter("halo_msgs").Inc()
	d.Sc.Counter("halo_bytes").Add(int64(8 * len(pk.Val)))
}

// vecPacket carries the entries of a vector in a rank's spans (rank 0's
// broadcast of the coarse solution).
type vecPacket struct {
	Val []float64
}

// haloPacket carries partial sums (or owner totals) between ranks: the
// values on the sender's exchange list, which unpack on the receiver's
// matching list (Layout.Ghost, Layout.Mirror).
type haloPacket struct {
	Val []float64
}

// ElementKernel is a matrix-free velocity-block operator that can apply
// an element subset, accumulating into y: fem.Resident, fem.TensorOp.
type ElementKernel interface {
	ApplyElements(elems []int, u, y la.Vec)
}

// ApplyElements computes this rank's part of y = A·x for the kernel k
// (paper §II-D): boundary elements first, the partial-sum exchange
// started, interior elements applied while the partials are in flight,
// the Dirichlet identity of mask on owned rows after the reduction, owner
// totals broadcast back to the ghosts. y is valid on the rank's
// owned+ghost rows on return. This is the apply under every matrix-free
// level of the distributed V-cycle.
func (d *Dist) ApplyElements(k ElementKernel, mask []bool, x, y la.Vec) error {
	l := d.L
	y.ZeroSpans(l.VelSpans())
	k.ApplyElements(l.Boundary, x, y)
	return d.ReduceBroadcast(y,
		func() { k.ApplyElements(l.Interior, x, y) },
		func() { l.IdentityOwnedRows(mask, x, y) })
}

// ReduceBroadcast completes a distributed additive apply on the
// velocity vector y: partial sums this rank holds at ghost nodes are
// shipped to their owners (first exchange), received partials are
// accumulated into owned rows in ascending neighbour order, fixup (if
// non-nil) runs on the now-complete owned values — the place for
// Dirichlet identity rows — and owner totals are broadcast back to
// every neighbour's ghost copies (second exchange).
//
// overlap (if non-nil) runs between starting the partial-sum exchange
// and waiting on it: the paper's §II-D latency hiding — the caller
// applies interior elements while boundary partials are in flight.
//
// y must be zero at every ghost node this rank's elements did not
// write (all apply paths zero y before scattering, so this holds for
// operator outputs); the extended ghost region may carry such zeros —
// they are shipped and accumulate harmlessly.
func (d *Dist) ReduceBroadcast(y []float64, overlap, fixup func()) (err error) {
	defer func() { d.R.note(err) }()
	l := d.L
	px := d.R.StartExchange(l.Neighbors, d.pack(&d.partials, l.Ghost, y), d.Sc)
	if overlap != nil {
		overlap()
	}
	recv, err := px.Wait()
	if err != nil {
		return fmt.Errorf("comm: halo partial-sum exchange: %w", err)
	}
	for j, src := range l.Neighbors {
		pk, err := haloFrom(d.R.ID, src, recv[j], la.SpansLen(l.Mirror[src]))
		if err != nil {
			return fmt.Errorf("comm: halo partial-sum exchange: %w", err)
		}
		val := pk.Val
		for _, sp := range l.Mirror[src] {
			w := y[sp.Lo:sp.Hi]
			for i := range w {
				w[i] += val[i]
			}
			val = val[len(w):]
		}
	}
	if fixup != nil {
		fixup()
	}
	return d.Broadcast(y)
}

// Broadcast refreshes the ghost entries of y from their owners: each
// rank sends its owned values that neighbours read (Mirror lists) and
// overwrites its ghost copies with the received owner values. It is the
// second half of ReduceBroadcast, and on its own the exchange of an
// assembled level operator and of a restriction to the coarse ghosts.
func (d *Dist) Broadcast(y []float64) (err error) {
	defer func() { d.R.note(err) }()
	l := d.L
	recv, err := d.R.StartExchange(l.Neighbors, d.pack(&d.owners, l.Mirror, y), d.Sc).Wait()
	if err != nil {
		return fmt.Errorf("comm: halo owner-broadcast exchange: %w", err)
	}
	for i, src := range l.Neighbors {
		pk, err := haloFrom(d.R.ID, src, recv[i], la.SpansLen(l.Ghost[src]))
		if err != nil {
			return fmt.Errorf("comm: halo owner-broadcast exchange: %w", err)
		}
		la.Vec(y).Unpack(pk.Val, l.Ghost[src])
	}
	return nil
}

// haloFrom returns v, the message rank took from src, as a halo packet of
// want values, or a *PayloadError when it is something else: another
// collective's message, by its type, or another exchange's packet — of
// another level, or meant for another rank — by its value count. Ranks
// that disagree on the collective order hand each other such messages.
func haloFrom(rank, src int, v interface{}, want int) (*haloPacket, error) {
	pk, err := payloadAs[*haloPacket](rank, src, v)
	if err == nil {
		err = checkCount(rank, src, pk, len(pk.Val), want)
	}
	return pk, err
}

// checkCount returns a *PayloadError when the packet pk from src holds got
// values where want were due.
func checkCount(rank, src int, pk interface{}, got, want int) error {
	if got == want {
		return nil
	}
	return &PayloadError{Rank: rank, Source: src,
		Got: fmt.Sprintf("%T of %d values", pk, got), Want: fmt.Sprintf("%T of %d values", pk, want)}
}

// AllReduceSum returns the global sum of x with a deterministic
// reduction: every rank sees the bit-identical value regardless of
// goroutine scheduling. Implemented on the width-1 binomial tree of
// AllReduceSumVec — O(log P) depth with the exact ascending-rank
// summation order of a serial gather. This is the AllReduce under every
// distributed dot product/norm. On an error (ranks that disagree on the
// collective order) the sum reads NaN, so an iteration that goes on with
// it breaks down at once.
func (d *Dist) AllReduceSum(x float64) (float64, error) {
	buf := [1]float64{x}
	v, err := d.AllReduceSumVec(buf[:])
	if err != nil {
		return math.NaN(), err
	}
	return v[0], nil
}
