package mpm

import (
	"fmt"
	"math/rand"

	"ptatin3d/internal/comm"
	"ptatin3d/internal/fem"
	"ptatin3d/internal/telemetry"
)

// PointPacket is the wire format of migrating material points (the Ls/Lr
// lists of paper §II-D).
type PointPacket struct {
	X, Y, Z []float64
	Litho   []int32
	Plastic []float64
}

func (pk *PointPacket) add(pts *Points, i int) {
	pk.X = append(pk.X, pts.X[i])
	pk.Y = append(pk.Y, pts.Y[i])
	pk.Z = append(pk.Z, pts.Z[i])
	pk.Litho = append(pk.Litho, pts.Litho[i])
	pk.Plastic = append(pk.Plastic, pts.Plastic[i])
}

// Len returns the number of packed points.
func (pk *PointPacket) Len() int { return len(pk.X) }

// Checksum64 implements comm.Checksummer so migrating point payloads are
// integrity-checked in flight.
func (pk *PointPacket) Checksum64() uint64 {
	h := comm.HashFloats(comm.HashSeed, pk.X)
	h = comm.HashFloats(h, pk.Y)
	h = comm.HashFloats(h, pk.Z)
	h = comm.HashInt32s(h, pk.Litho)
	return comm.HashFloats(h, pk.Plastic)
}

// CorruptCopy implements comm.Corrupter: a deep copy with one coordinate
// perturbed (or a spurious point appended when empty), modelling payload
// corruption of the Ls migration list.
func (pk *PointPacket) CorruptCopy(rng *rand.Rand) interface{} {
	c := &PointPacket{
		X:       append([]float64(nil), pk.X...),
		Y:       append([]float64(nil), pk.Y...),
		Z:       append([]float64(nil), pk.Z...),
		Litho:   append([]int32(nil), pk.Litho...),
		Plastic: append([]float64(nil), pk.Plastic...),
	}
	if c.Len() > 0 {
		i := rng.Intn(c.Len())
		c.X[i] += 0.5 + rng.Float64()
	} else {
		c.X = append(c.X, rng.Float64())
		c.Y = append(c.Y, rng.Float64())
		c.Z = append(c.Z, rng.Float64())
		c.Litho = append(c.Litho, 0)
		c.Plastic = append(c.Plastic, 0)
	}
	return c
}

// MigrateStats summarizes one migration round.
type MigrateStats struct {
	Sent     int // points placed in Ls and shipped to neighbours
	Received int // points adopted from neighbours
	Deleted  int // points not owned by any neighbour (outflow), discarded
}

// Migrate implements the §II-D protocol on rank r of the decomposition d:
// after advection, every point whose element left r's subdomain is put in
// the send list Ls and shipped to all neighbouring subdomains; each
// neighbour runs point location on the received list Lr, adopts the
// points it contains and deletes the rest. Points that left the global
// domain entirely (Elem < 0 after LocateAll) are deleted locally,
// which "permits material points to leave the domain if any outflow type
// boundary conditions are prescribed".
//
// prob must be the globally consistent problem (all ranks share the mesh
// in this simulated setting); pts is r's local point population, already
// located via LocateAll.
//
// sc, when non-nil, accumulates "migrations"/"sent"/"received"/"deleted"
// counters and a "migrate" timer across rounds. Each rank should use its
// own scope (or child) — scopes are safe for concurrent recording, but
// per-rank children keep the numbers attributable.
//
// The Ls/Lr shipment runs over the reliable exchange protocol with the
// world's retry policy: dropped or corrupted point payloads are detected
// (checksummed) and retransmitted; an exchange that cannot complete
// within the retry budget returns a typed error wrapping
// *comm.ExchangeError, with the local point population left in its
// pre-shipment state minus the points already packed into Ls (the caller
// must abort the step).
func Migrate(r *comm.Rank, d *comm.Decomp, prob *fem.Problem, pts *Points, sc *telemetry.Scope) (MigrateStats, error) {
	telStart := sc.Timer("migrate").Start()
	var st MigrateStats
	nbrs := d.Neighbors(r.ID)

	// Build Ls: points located in elements no longer owned by this rank,
	// plus out-of-domain points (deleted immediately).
	var ls PointPacket
	for i := pts.Len() - 1; i >= 0; i-- {
		e := int(pts.Elem[i])
		if e < 0 {
			pts.RemoveSwap(i)
			st.Deleted++
			continue
		}
		if d.RankOfElement(e) != r.ID {
			ls.add(pts, i)
			pts.RemoveSwap(i)
			st.Sent++
		}
	}

	// Ship Ls to every neighbour (the paper sends the full list to all
	// neighbours and lets receivers filter — so do we).
	payload := make(map[int]interface{}, len(nbrs))
	for _, n := range nbrs {
		payload[n] = &ls
	}
	recv, err := r.ExchangeReliable(nbrs, payload, r.Policy(), sc)
	if err != nil {
		sc.Timer("migrate").Stop(telStart)
		sc.Counter("migrate_failures").Inc()
		return st, fmt.Errorf("mpm: point migration exchange: %w", err)
	}

	// Process Lr: adopt points whose containing element is ours.
	c := prob.Cursor(nil, nil)
	defer c.Done()
	for _, n := range nbrs {
		lr := recv[n].(*PointPacket)
		for i := 0; i < lr.Len(); i++ {
			e, xi, et, ze, ok := Locate(&c, lr.X[i], lr.Y[i], lr.Z[i], -1)
			if !ok || d.RankOfElement(e) != r.ID {
				continue // someone else's point, or outflow — drop our copy
			}
			idx := pts.Append(lr.X[i], lr.Y[i], lr.Z[i], lr.Litho[i], lr.Plastic[i])
			pts.Elem[idx] = int32(e)
			pts.Xi[idx], pts.Et[idx], pts.Ze[idx] = xi, et, ze
			st.Received++
		}
	}
	sc.Timer("migrate").Stop(telStart)
	sc.Counter("migrations").Inc()
	sc.Counter("sent").Add(int64(st.Sent))
	sc.Counter("received").Add(int64(st.Received))
	sc.Counter("deleted").Add(int64(st.Deleted))
	return st, nil
}
