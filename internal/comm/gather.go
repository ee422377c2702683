package comm

import "fmt"

// The coarse solve's gather to rank 0 (paper §III-C, PETSc's default
// coarse-grid redistribution): every other rank ships the owned entries
// of the coarse right-hand side to rank 0, rank 0 runs the one coarse
// solve and sends the whole solution back. Each phase is one neighbour
// exchange between rank 0 and every other rank. A client sits idle while
// rank 0 solves, and may overlap work then.

// gatherBufs are a Dist's persistent coarse-gather packets: the owned
// entries a client ships, the solution rank 0 sends, and rank 0's client
// list. Reuse is safe without a ring: a client refills own only after
// the solution of the last gather reached it, sent after rank 0 had read
// own; and rank 0 rewrites sol only after every client's next packet
// reached it, each sent after that client had copied the last solution.
type gatherBufs struct {
	own     haloPacket
	sol     vecPacket
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
// rank 0 runs solve (which reads b and writes x) and sends x to every
// other rank. On return x is valid on the rank's owned+ghost entries
// (Layout.VelSpans): a client copies those alone, so its work stays
// O(n/P), and every reader of the coarse correction stays inside that
// box. overlap (if non-nil) runs on the other ranks while rank 0 gathers
// and solves — the idle-rank latency-hiding hook.
func (d *Dist) GatherSolveBroadcast(b, x []float64, solve, overlap func()) error {
	r := d.R
	size := r.W.Size()
	if size == 1 {
		solve()
		return nil
	}
	g := &d.gather
	if r.ID != 0 {
		// Client: ship owned entries to rank 0, overlap while it gathers
		// and solves, then take the solution.
		g.own.fill(d.L.OwnedNodes(), b)
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
		if err != nil {
			return fmt.Errorf("comm: coarse solution broadcast: %w", err)
		}
		for _, sp := range d.L.VelSpans() {
			copy(x[sp.Lo:sp.Hi], xs.Val[sp.Lo:sp.Hi])
		}
		return nil
	}

	// Rank 0: scatter every client's owned entries into b, in rank order...
	if len(g.clients) != size-1 {
		g.clients = g.clients[:0]
		for c := 1; c < size; c++ {
			g.clients = append(g.clients, c)
		}
	}
	recv, err := r.StartExchange(g.clients, g.fill(len(g.clients), empty), d.Sc).Wait()
	if err != nil {
		return fmt.Errorf("comm: coarse gather: %w", err)
	}
	for i, src := range g.clients {
		pk, err := payloadAs[*haloPacket](r.ID, src, recv[i])
		if err != nil {
			return fmt.Errorf("comm: coarse gather: %w", err)
		}
		pk.unpack(b)
	}
	// ...solve, and send every client a copy of x (the caller may
	// rewrite x before a client has read it).
	solve()
	g.sol.Val = append(g.sol.Val[:0], x...)
	d.Sc.Counter("halo_msgs").Add(int64(len(g.clients)))
	d.Sc.Counter("halo_bytes").Add(int64(len(g.clients) * 8 * len(x)))
	if _, err := r.StartExchange(g.clients, g.fill(len(g.clients), &g.sol), d.Sc).Wait(); err != nil {
		return fmt.Errorf("comm: coarse solution broadcast: %w", err)
	}
	return nil
}
