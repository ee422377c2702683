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
// Every phase is one collective reliable exchange issued by EVERY rank
// (non-participants pass empty neighbour lists), keeping the per-rank
// exchange sequence numbers aligned across the world.

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

	if r.ID != root {
		// Client: ship owned entries to the block root, overlap while
		// the root group gathers and solves, then take the solution.
		own := d.L.OwnedNodes()
		pk := &haloPacket{Node: own, Val: make([]float64, 0, 3*len(own))}
		for _, node := range own {
			pk.Val = append(pk.Val, b[3*node], b[3*node+1], b[3*node+2])
		}
		d.countPacket(pk)
		d.chargeCoarse(4*len(pk.Node) + 8*len(pk.Val))
		if _, err := r.ExchangeReliable([]int{root}, map[int]interface{}{root: pk}, d.Sc); err != nil {
			return fmt.Errorf("comm: agg block gather: %w", err)
		}
		// Root-group all-gather: clients sit it out (empty exchange
		// keeps sequence numbers aligned).
		if _, err := r.ExchangeReliable(nil, nil, d.Sc); err != nil {
			return fmt.Errorf("comm: agg root gather: %w", err)
		}
		px := r.StartExchange([]int{root}, map[int]interface{}{root: &haloPacket{}}, d.Sc)
		if overlap != nil {
			overlap()
		}
		sol, err := px.Wait()
		if err != nil {
			return fmt.Errorf("comm: agg solution broadcast: %w", err)
		}
		copy(x, sol[root].(*vecPacket).Val)
		return nil
	}

	// Root: gather the block members' owned entries...
	members := a.Members(g)
	payload := map[int]interface{}{}
	for _, m := range members {
		payload[m] = &haloPacket{}
	}
	recv, err := r.ExchangeReliable(members, payload, d.Sc)
	if err != nil {
		return fmt.Errorf("comm: agg block gather: %w", err)
	}
	// ...combine them with our own into one block packet...
	comb := &haloPacket{}
	appendOwned := func(nodes []int32, vals []float64) {
		comb.Node = append(comb.Node, nodes...)
		comb.Val = append(comb.Val, vals...)
	}
	own := d.L.OwnedNodes()
	vals := make([]float64, 0, 3*len(own))
	for _, node := range own {
		vals = append(vals, b[3*node], b[3*node+1], b[3*node+2])
	}
	appendOwned(own, vals)
	for _, m := range members {
		pk := recv[m].(*haloPacket)
		appendOwned(pk.Node, pk.Val)
		// Scatter into our b as we go: the root's b must be globally
		// valid before solve.
		for i, node := range pk.Node {
			b[3*node] = pk.Val[3*i]
			b[3*node+1] = pk.Val[3*i+1]
			b[3*node+2] = pk.Val[3*i+2]
		}
	}
	// ...and all-gather the block packets across the root group.
	roots := a.RootList()
	others := make([]int, 0, len(roots)-1)
	rp := map[int]interface{}{}
	for _, rt := range roots {
		if rt != r.ID {
			others = append(others, rt)
			rp[rt] = comb
		}
	}
	if len(others) > 0 {
		d.Sc.Counter("halo_msgs").Add(int64(len(others)))
		d.Sc.Counter("halo_bytes").Add(int64(len(others) * (4*len(comb.Node) + 8*len(comb.Val))))
		d.chargeCoarse(len(others) * (4*len(comb.Node) + 8*len(comb.Val)))
	}
	rrecv, err := r.ExchangeReliable(others, rp, d.Sc)
	if err != nil {
		return fmt.Errorf("comm: agg root gather: %w", err)
	}
	for _, rt := range others {
		pk := rrecv[rt].(*haloPacket)
		for i, node := range pk.Node {
			b[3*node] = pk.Val[3*i]
			b[3*node+1] = pk.Val[3*i+1]
			b[3*node+2] = pk.Val[3*i+2]
		}
	}

	// Redundant solve: every root computes the identical solution, so
	// roots never need to exchange results.
	solve()

	// Broadcast the solution to the block (deep copy: receivers unpack
	// after our exchange completes, and the caller may mutate x first).
	bp := map[int]interface{}{}
	if len(members) > 0 {
		out := &vecPacket{Val: append([]float64(nil), x...)}
		for _, m := range members {
			bp[m] = out
		}
		d.Sc.Counter("halo_msgs").Add(int64(len(members)))
		d.Sc.Counter("halo_bytes").Add(int64(len(members) * 8 * len(x)))
		d.chargeCoarse(len(members) * 8 * len(x))
	}
	if _, err := r.ExchangeReliable(members, bp, d.Sc); err != nil {
		return fmt.Errorf("comm: agg solution broadcast: %w", err)
	}
	return nil
}
