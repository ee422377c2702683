package mpm

import (
	"fmt"

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
// The Ls/Lr shipment is one neighbour exchange. An exchange the world's
// quiet leaves incomplete returns a typed error wrapping
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
	payload := make([]interface{}, len(nbrs))
	for i := range payload {
		payload[i] = &ls
	}
	recv, err := r.StartExchange(nbrs, payload, sc).Wait()
	if err != nil {
		sc.Timer("migrate").Stop(telStart)
		sc.Counter("migrate_failures").Inc()
		return st, fmt.Errorf("mpm: point migration exchange: %w", err)
	}

	// Process Lr: adopt points whose containing element is ours.
	c := prob.Cursor(nil, nil)
	for i := range nbrs {
		lr := recv[i].(*PointPacket)
		for i := 0; i < lr.Len(); i++ {
			e, xi, et, ze, ok := Locate(&c, lr.X[i], lr.Y[i], lr.Z[i])
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
