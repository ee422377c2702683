package comm

import (
	"fmt"

	"ptatin3d/internal/la"
)

// The coarse solve's gather to rank 0 (paper §III-C, PETSc's default
// coarse-grid redistribution): every other rank ships the owned entries
// of the coarse right-hand side to rank 0, rank 0 runs the one coarse
// solve and sends each client the part of the solution it reads: its
// owned+ghost entries (Layout.VelSpans). Each phase is one neighbour
// exchange between rank 0 and every other rank. A client sits idle while
// rank 0 solves, and may overlap work then.

// gatherBufs are a Dist's persistent coarse-gather packets: the owned
// entries a client ships, the solution packet rank 0 sends each client,
// and rank 0's client list with each client's owned and owned+ghost
// spans. Reuse is safe without a ring: a client refills own only after
// the solution of the last gather reached it, sent after rank 0 had read
// own; and rank 0 rewrites a client's solution packet only after that
// client's next packet reached it, sent after the client had copied the
// last solution.
type gatherBufs struct {
	own     haloPacket
	sols    []vecPacket // by client index
	owned   [][]la.Span // by client index: the client's OwnedSpans
	spans   [][]la.Span // by client index: the client's VelSpans
	clients []int
	payload []interface{}
	root    [1]int // rank 0, a client's one peer
}

// empty is the packet of a rank with nothing to send in a gather phase;
// no one writes it.
var empty = &haloPacket{}

// fill sets payload to k copies of v, reusing its storage.
func (g *gatherBufs) fill(k int, v interface{}) []interface{} {
	g.payload = g.payload[:0]
	for i := 0; i < k; i++ {
		g.payload = append(g.payload, v)
	}
	return g.payload
}

// GatherSolveBroadcast runs the coarse solve on rank 0: the owned
// velocity entries of b funnel to rank 0, so its b is globally valid;
// rank 0 runs solve (which reads b and writes x) and sends every other
// rank the entries of x in that rank's owned+ghost spans
// (Layout.VelSpans), in span order. On return x is valid on the rank's
// owned+ghost entries: a client receives and copies those alone, so its
// traffic and work stay O(n/P), and every reader of the coarse correction
// stays inside that box. overlap (if non-nil) runs on the other ranks
// while rank 0 gathers and solves — the idle-rank latency-hiding hook.
func (d *Dist) GatherSolveBroadcast(b, x []float64, solve, overlap func()) (err error) {
	r := d.R
	defer func() { r.note(err) }()
	size := r.W.Size()
	if size == 1 {
		solve()
		return nil
	}
	g := &d.gather
	if r.ID != 0 {
		// Client: ship owned entries to rank 0, overlap while it gathers
		// and solves, then take the solution.
		g.own.Val = appendSpans(g.own.Val[:0], d.L.OwnedSpans(), b)
		d.countPacket(&g.own)
		if _, err := r.StartExchange(g.root[:], g.fill(1, &g.own), d.Sc).Wait(); err != nil {
			return fmt.Errorf("comm: coarse gather: %w", err)
		}
		px := r.StartExchange(g.root[:], g.fill(1, empty), d.Sc)
		if overlap != nil {
			overlap()
		}
		sol, err := px.Wait()
		if err != nil {
			return fmt.Errorf("comm: coarse solution broadcast: %w", err)
		}
		xs, err := payloadAs[*vecPacket](r.ID, 0, sol[0])
		if err == nil {
			err = checkCount(r.ID, 0, xs, len(xs.Val), la.SpansLen(d.L.VelSpans()))
		}
		if err != nil {
			return fmt.Errorf("comm: coarse solution broadcast: %w", err)
		}
		la.Vec(x).Unpack(xs.Val, d.L.VelSpans())
		return nil
	}

	// Rank 0: scatter every client's owned entries into b, in rank order...
	if len(g.clients) != size-1 {
		g.clients, g.owned, g.spans = g.clients[:0], g.owned[:0], g.spans[:0]
		for c := 1; c < size; c++ {
			g.clients = append(g.clients, c)
			g.owned = append(g.owned, velSpans(d.L.D, ownedBox(d.L.D, c)))
			g.spans = append(g.spans, velSpans(d.L.D, extBox(d.L.D, c)))
		}
		g.sols = make([]vecPacket, len(g.clients))
	}
	recv, err := r.StartExchange(g.clients, g.fill(len(g.clients), empty), d.Sc).Wait()
	if err != nil {
		return fmt.Errorf("comm: coarse gather: %w", err)
	}
	for i, src := range g.clients {
		pk, err := haloFrom(r.ID, src, recv[i], la.SpansLen(g.owned[i]))
		if err != nil {
			return fmt.Errorf("comm: coarse gather: %w", err)
		}
		la.Vec(b).Unpack(pk.Val, g.owned[i])
	}
	// ...solve, and send every client a copy of the x it reads (the
	// caller may rewrite x before a client has read it).
	solve()
	g.payload = g.payload[:0]
	nval := 0
	for i := range g.clients {
		sol := &g.sols[i]
		sol.Val = appendSpans(sol.Val[:0], g.spans[i], x)
		nval += len(sol.Val)
		g.payload = append(g.payload, sol)
	}
	d.Sc.Counter("halo_msgs").Add(int64(len(g.clients)))
	d.Sc.Counter("halo_bytes").Add(int64(8 * nval))
	if _, err := r.StartExchange(g.clients, g.payload, d.Sc).Wait(); err != nil {
		return fmt.Errorf("comm: coarse solution broadcast: %w", err)
	}
	return nil
}
