package comm

import (
	"fmt"
	"math/rand"

	"ptatin3d/internal/la"
	"ptatin3d/internal/telemetry"
)

// Dist bundles a rank with a Layout into the per-rank handle of the
// distributed vector layer: owner-reduce/broadcast halo exchanges over
// the reliable envelope protocol, deterministic rank-ordered AllReduce
// for dot products, and gather/broadcast collectives for the coarse
// solve. All methods are rank-collective: every rank of the world must
// call them in the same order with layouts of the same Decomp.
//
// Telemetry (Sc nilable): "halo_msgs"/"halo_bytes" counters for
// exchanged packets, an "allreduces" counter and "allreduce" timer for
// reductions, plus the reliable-exchange counters of ExchangeReliable.
type Dist struct {
	R   *Rank
	L   *Layout
	Pol RetryPolicy
	Sc  *telemetry.Scope
}

// NewDist builds rank r's distributed-vector handle over layout l.
func NewDist(r *Rank, l *Layout, sc *telemetry.Scope) *Dist {
	return &Dist{R: r, L: l, Pol: r.Policy(), Sc: sc}
}

// countPacket accounts one outgoing halo packet, charging the modeled
// fabric cost when an interconnect model is installed.
func (d *Dist) countPacket(pk *haloPacket) {
	bytes := 4*len(pk.Node) + 8*len(pk.Val)
	d.Sc.Counter("halo_msgs").Inc()
	d.Sc.Counter("halo_bytes").Add(int64(bytes))
	if f := d.R.W.fabric; f != nil {
		d.Sc.Counter("fabric_halo_ns").Add(f.MsgNs(bytes))
	}
}

// chargeCoarse accounts modeled fabric time for a coarse-solve message.
func (d *Dist) chargeCoarse(bytes int) {
	if f := d.R.W.fabric; f != nil {
		d.Sc.Counter("fabric_coarse_ns").Add(f.MsgNs(bytes))
	}
}

// vecPacket carries a full vector (root broadcast of the coarse solve).
type vecPacket struct {
	Val []float64
}

// Checksum64 implements Checksummer.
func (p *vecPacket) Checksum64() uint64 { return HashFloats(HashSeed, p.Val) }

// CorruptCopy implements Corrupter.
func (p *vecPacket) CorruptCopy(rng *rand.Rand) interface{} {
	c := &vecPacket{Val: append([]float64(nil), p.Val...)}
	if len(c.Val) > 0 {
		i := rng.Intn(len(c.Val))
		c.Val[i] = c.Val[i]*1.5 + 1
	} else {
		c.Val = append(c.Val, rng.Float64())
	}
	return c
}

// haloPacket carries partial nodal sums (or owner totals) between ranks.
type haloPacket struct {
	Node []int32
	Val  []float64 // 3 per node
}

// Checksum64 implements Checksummer so the reliable exchange can detect
// in-flight corruption of halo payloads.
func (pk *haloPacket) Checksum64() uint64 {
	h := HashInt32s(HashSeed, pk.Node)
	return HashFloats(h, pk.Val)
}

// CorruptCopy implements Corrupter: a deep copy with one value flipped
// (or, for empty packets, a spurious node entry added).
func (pk *haloPacket) CorruptCopy(rng *rand.Rand) interface{} {
	c := &haloPacket{
		Node: append([]int32(nil), pk.Node...),
		Val:  append([]float64(nil), pk.Val...),
	}
	if len(c.Val) > 0 {
		i := rng.Intn(len(c.Val))
		c.Val[i] = c.Val[i]*1.5 + 1
	} else {
		c.Node = append(c.Node, int32(rng.Intn(1<<20)))
		c.Val = append(c.Val, rng.Float64(), rng.Float64(), rng.Float64())
	}
	return c
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
// level of the distributed V-cycle, so a fault injected into the world
// reaches the exchanges the solver runs.
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
func (d *Dist) ReduceBroadcast(y []float64, overlap, fixup func()) error {
	l := d.L
	payload := map[int]interface{}{}
	for _, n := range l.Neighbors {
		gl := l.Ghost[n]
		pk := &haloPacket{Node: gl, Val: make([]float64, 0, 3*len(gl))}
		for _, node := range gl {
			pk.Val = append(pk.Val, y[3*node], y[3*node+1], y[3*node+2])
		}
		payload[n] = pk
		d.countPacket(pk)
	}
	px := d.R.StartExchange(l.Neighbors, payload, d.Pol, d.Sc)
	if overlap != nil {
		overlap()
	}
	recv, err := px.Wait()
	if err != nil {
		return fmt.Errorf("comm: halo partial-sum exchange: %w", err)
	}
	for _, n := range l.Neighbors {
		pk := recv[n].(*haloPacket)
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
// overwrites its ghost copies with the received owner values. Used as
// the second half of ReduceBroadcast, and on its own to make an
// externally-assembled vector halo-consistent (krylov.Exchanger).
func (d *Dist) Broadcast(y []float64) error {
	l := d.L
	payload := map[int]interface{}{}
	for _, n := range l.Neighbors {
		ml := l.Mirror[n]
		pk := &haloPacket{Node: ml, Val: make([]float64, 0, 3*len(ml))}
		for _, node := range ml {
			pk.Val = append(pk.Val, y[3*node], y[3*node+1], y[3*node+2])
		}
		payload[n] = pk
		d.countPacket(pk)
	}
	recv, err := d.R.ExchangeReliable(l.Neighbors, payload, d.Pol, d.Sc)
	if err != nil {
		return fmt.Errorf("comm: halo owner-broadcast exchange: %w", err)
	}
	for _, n := range l.Neighbors {
		pk := recv[n].(*haloPacket)
		for i, node := range pk.Node {
			y[3*node] = pk.Val[3*i]
			y[3*node+1] = pk.Val[3*i+1]
			y[3*node+2] = pk.Val[3*i+2]
		}
	}
	return nil
}

// AllReduceSum returns the global sum of x with a deterministic
// reduction: every rank sees the bit-identical value regardless of
// goroutine scheduling. Implemented on the width-1 binomial tree of
// AllReduceSumVec — O(log P) depth with the exact ascending-rank
// summation order of a serial gather. This is the AllReduce under every
// distributed dot product/norm.
func (d *Dist) AllReduceSum(x float64) float64 {
	var buf [1]float64
	buf[0] = x
	return d.AllReduceSumVec(buf[:])[0]
}
