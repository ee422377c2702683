package comm

import "fmt"

// Coarse-level agglomeration (paper §III-C / PETSc PCTELESCOPE,
// PCREDUNDANT): at 512 ranks an all-to-rank-0 coarse solve serializes
// P−1 exchanges through rank 0's mailbox every V-cycle. Agg partitions
// the world into contiguous blocks, each with a root rank (one block is
// that all-to-rank-0 gather); coarse right-hand sides funnel block-locally
// to the roots, the roots share their combined blocks among themselves
// (a much smaller all-gather), every root runs the coarse solve
// redundantly — identical inputs, identical outputs, no result
// exchange between roots — and each root broadcasts the solution to
// its block. Idle client ranks may overlap work (e.g. the next halo
// post) while the roots solve.
//
// Each phase is one neighbour exchange among the ranks it involves: a
// rank outside a phase sends and waits for nothing in it.

// Agg describes an agglomeration of `Size` ranks onto `Roots` coarse
// sub-solvers: block g covers ranks [g·Size/Roots, (g+1)·Size/Roots),
// rooted at its first rank. Roots == 1 reproduces the all-to-root
// topology; Roots == Size makes every rank a redundant solver.
type Agg struct {
	Size  int
	Roots int
}

// NewAgg validates and builds an agglomeration layout.
func NewAgg(size, roots int) (*Agg, error) {
	if size < 1 {
		return nil, fmt.Errorf("comm: agg world size %d < 1", size)
	}
	if roots < 1 || roots > size {
		return nil, fmt.Errorf("comm: agg root count %d outside [1, %d]", roots, size)
	}
	return &Agg{Size: size, Roots: roots}, nil
}

// Block returns the block index of a rank.
func (a *Agg) Block(rank int) int {
	return (rank*a.Roots + a.Roots - 1) / a.Size
}

// Root returns the root rank of block g.
func (a *Agg) Root(g int) int { return g * a.Size / a.Roots }

// Members returns the non-root ranks of block g.
func (a *Agg) Members(g int) []int {
	lo, hi := g*a.Size/a.Roots, (g+1)*a.Size/a.Roots
	out := make([]int, 0, hi-lo-1)
	for r := lo + 1; r < hi; r++ {
		out = append(out, r)
	}
	return out
}

// RootList returns all block roots in ascending order.
func (a *Agg) RootList() []int {
	out := make([]int, a.Roots)
	for g := range out {
		out[g] = a.Root(g)
	}
	return out
}

// aggBufs are a Dist's persistent coarse-gather buffers, recycled round
// rings of haloSlots like the halo packets: the owned entries a client
// ships, the block packet a root combines, the solution a root sends, and
// the block's member and root lists of the layout last used.
type aggBufs struct {
	a               Agg
	members, others []int
	next            int
	own, comb       [haloSlots]haloPacket
	sol             [haloSlots]vecPacket
	payload         []interface{}
	to              [1]int
}

// empty is the packet of a rank with nothing to send in an agglomeration
// phase; no one writes it.
var empty = &haloPacket{}

// layout caches the member and other-root lists of a's block for this
// rank, and returns the next slot.
func (b *aggBufs) layout(a *Agg, id int) int {
	if b.a != *a || b.members == nil {
		b.a = *a
		g := a.Block(id)
		b.members = a.Members(g)
		b.others = b.others[:0]
		for _, rt := range a.RootList() {
			if rt != id {
				b.others = append(b.others, rt)
			}
		}
	}
	k := b.next % haloSlots
	b.next++
	return k
}

// fill sets payload to k copies of v, reusing its storage.
func (b *aggBufs) fill(k int, v interface{}) []interface{} {
	b.payload = b.payload[:0]
	for i := 0; i < k; i++ {
		b.payload = append(b.payload, v)
	}
	return b.payload
}

// AggGatherSolveBroadcast runs the agglomerated coarse solve: the owned
// velocity entries of b funnel to the block roots and then across the
// root group, so every root holds a globally valid b; every root runs
// solve (which must read b, write x, and produce identical results on
// identical inputs — callers serialize any shared solver state); each
// root broadcasts x to its block. On return x is globally valid on
// every rank. overlap (if non-nil) runs on client ranks while the roots
// are gathering and solving — the idle-rank latency-hiding hook.
func (d *Dist) AggGatherSolveBroadcast(a *Agg, b, x []float64, solve func(), overlap func()) error {
	r := d.R
	if a.Size != r.W.Size() {
		return fmt.Errorf("comm: agg layout sized for %d ranks in a %d-rank world", a.Size, r.W.Size())
	}
	if a.Roots == 1 && a.Size == 1 {
		solve()
		return nil
	}
	g := a.Block(r.ID)
	root := a.Root(g)
	bufs := &d.agg
	slot := bufs.layout(a, r.ID)

	if r.ID != root {
		// Client: ship owned entries to the block root, overlap while
		// the root group gathers and solves, then take the solution.
		pk := &bufs.own[slot]
		pk.fill(d.L.OwnedNodes(), b)
		d.countPacket(pk)
		d.chargeCoarse(4*len(pk.Node) + 8*len(pk.Val))
		bufs.to[0] = root
		if _, err := r.StartExchange(bufs.to[:], bufs.fill(1, pk), d.Sc).Wait(); err != nil {
			return fmt.Errorf("comm: agg block gather: %w", err)
		}
		// Clients sit out the root-group all-gather.
		px := r.StartExchange(bufs.to[:], bufs.fill(1, empty), d.Sc)
		if overlap != nil {
			overlap()
		}
		sol, err := px.Wait()
		if err != nil {
			return fmt.Errorf("comm: agg solution broadcast: %w", err)
		}
		xs, err := payloadAs[*vecPacket](r.ID, root, sol[0])
		if err != nil {
			return fmt.Errorf("comm: agg solution broadcast: %w", err)
		}
		copy(x, xs.Val)
		return nil
	}

	// Root: gather the block members' owned entries...
	members := bufs.members
	recv, err := r.StartExchange(members, bufs.fill(len(members), empty), d.Sc).Wait()
	if err != nil {
		return fmt.Errorf("comm: agg block gather: %w", err)
	}
	// ...combine them with our own into one block packet...
	comb := &bufs.comb[slot]
	own := d.L.OwnedNodes()
	comb.Node = append(comb.Node[:0], own...)
	comb.Val = comb.Val[:0]
	for _, node := range own {
		comb.Val = append(comb.Val, b[3*node], b[3*node+1], b[3*node+2])
	}
	for i, src := range members {
		pk, err := payloadAs[*haloPacket](r.ID, src, recv[i])
		if err != nil {
			return fmt.Errorf("comm: agg block gather: %w", err)
		}
		comb.Node = append(comb.Node, pk.Node...)
		comb.Val = append(comb.Val, pk.Val...)
		// Scatter into our b as we go: the root's b must be globally
		// valid before solve.
		pk.unpack(b)
	}
	// ...and all-gather the block packets across the root group.
	others := bufs.others
	if len(others) > 0 {
		d.Sc.Counter("halo_msgs").Add(int64(len(others)))
		d.Sc.Counter("halo_bytes").Add(int64(len(others) * (4*len(comb.Node) + 8*len(comb.Val))))
		d.chargeCoarse(len(others) * (4*len(comb.Node) + 8*len(comb.Val)))
	}
	rrecv, err := r.StartExchange(others, bufs.fill(len(others), comb), d.Sc).Wait()
	if err != nil {
		return fmt.Errorf("comm: agg root gather: %w", err)
	}
	for i, src := range others {
		pk, err := payloadAs[*haloPacket](r.ID, src, rrecv[i])
		if err != nil {
			return fmt.Errorf("comm: agg root gather: %w", err)
		}
		pk.unpack(b)
	}

	// Redundant solve: every root computes the identical solution, so
	// roots never need to exchange results.
	solve()

	// Broadcast the solution to the block (a copy: receivers unpack
	// after our exchange completes, and the caller may mutate x first).
	out := &bufs.sol[slot]
	if len(members) > 0 {
		out.Val = append(out.Val[:0], x...)
		d.Sc.Counter("halo_msgs").Add(int64(len(members)))
		d.Sc.Counter("halo_bytes").Add(int64(len(members) * 8 * len(x)))
		d.chargeCoarse(len(members) * 8 * len(x))
	}
	if _, err := r.StartExchange(members, bufs.fill(len(members), out), d.Sc).Wait(); err != nil {
		return fmt.Errorf("comm: agg solution broadcast: %w", err)
	}
	return nil
}
