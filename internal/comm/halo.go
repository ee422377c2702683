package comm

import (
	"fmt"
	"math"

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
// exchanged packets, an "allreduces" counter and "allreduce" timer for
// reductions, plus the "exchanges" counter and "exchange" timer of
// StartExchange.
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

// pack fills the next slot's packets with y's three values at every node
// of lists[n] for each neighbour n of the layout, counts them, and
// returns the payload list.
func (d *Dist) pack(h *haloRing, lists map[int][]int32, y []float64) []interface{} {
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
		pk.fill(lists[n], y)
		h.payload[i] = pk
		d.countPacket(pk)
	}
	return h.payload
}

// fill sets the packet to the nodes and their three values in y, reusing
// its storage.
func (pk *haloPacket) fill(nodes []int32, y []float64) {
	pk.Node = nodes
	if cap(pk.Val) < 3*len(nodes) {
		pk.Val = make([]float64, 0, 3*len(nodes))
	}
	pk.Val = pk.Val[:0]
	for _, node := range nodes {
		pk.Val = append(pk.Val, y[3*node], y[3*node+1], y[3*node+2])
	}
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
	d.Sc.Counter("halo_bytes").Add(int64(4*len(pk.Node) + 8*len(pk.Val)))
}

// vecPacket carries the entries of a vector in a rank's spans (rank 0's
// broadcast of the coarse solution).
type vecPacket struct {
	Val []float64
}

// haloPacket carries partial nodal sums (or owner totals) between ranks.
type haloPacket struct {
	Node []int32
	Val  []float64 // 3 per node
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
		pk, err := haloFrom(d.R.ID, src, recv[j], y)
		if err != nil {
			return fmt.Errorf("comm: halo partial-sum exchange: %w", err)
		}
		for i, node := range pk.Node {
			y[3*node] += pk.Val[3*i]
			y[3*node+1] += pk.Val[3*i+1]
			y[3*node+2] += pk.Val[3*i+2]
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
		pk, err := haloFrom(d.R.ID, src, recv[i], y)
		if err != nil {
			return fmt.Errorf("comm: halo owner-broadcast exchange: %w", err)
		}
		pk.unpack(y)
	}
	return nil
}

// haloFrom returns v, the message rank took from src, as a halo packet
// to be unpacked into y, or a *PayloadError when it is something else —
// a packet of another level's exchange, say, which ranks that disagree on
// the collective order hand each other, and whose nodes lie outside y.
func haloFrom(rank, src int, v interface{}, y []float64) (*haloPacket, error) {
	pk, err := payloadAs[*haloPacket](rank, src, v)
	if err == nil && !pk.fits(y) {
		err = &PayloadError{Rank: rank, Source: src,
			Got: "halo packet with nodes beyond the vector", Want: fmt.Sprintf("halo packet within its %d nodes", len(y)/3)}
	}
	return pk, err
}

// fits reports whether the packet holds three values for each of its
// nodes and every node lies in y.
func (pk *haloPacket) fits(y []float64) bool {
	if len(pk.Val) != 3*len(pk.Node) {
		return false
	}
	for _, node := range pk.Node {
		if 3*int(node)+3 > len(y) {
			return false
		}
	}
	return true
}

// unpack overwrites y at the packet's nodes with its values.
func (pk *haloPacket) unpack(y []float64) {
	for i, node := range pk.Node {
		y[3*node] = pk.Val[3*i]
		y[3*node+1] = pk.Val[3*i+1]
		y[3*node+2] = pk.Val[3*i+2]
	}
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
