package mpm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ptatin3d/internal/comm"
	"ptatin3d/internal/la"
	"ptatin3d/internal/telemetry"
)

// seedLocalPoints distributes a lattice across ranks by element ownership.
func seedLocalPoints(d *comm.Decomp, all *Points, rank int) *Points {
	local := &Points{}
	for i := 0; i < all.Len(); i++ {
		if d.RankOfElement(int(all.Elem[i])) == rank {
			idx := local.Append(all.X[i], all.Y[i], all.Z[i], all.Litho[i], all.Plastic[i])
			local.Elem[idx] = all.Elem[i]
			local.Xi[idx], local.Et[idx], local.Ze[idx] = all.Xi[i], all.Et[i], all.Ze[i]
		}
	}
	return local
}

// TestMigrateUnderCorruption runs the §II-D migration protocol with
// injected payload corruption: every surviving point must still end up
// exactly once on its owning rank with pristine coordinates, recovered via
// checksum rejection and retransmission.
func TestMigrateUnderCorruption(t *testing.T) {
	p := flatProblem(4)
	d, err := comm.NewDecomp(p.DA, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := comm.NewWorld(d.Size())
	fp := &comm.FaultPlan{Seed: 5, CorruptProb: 1, MaxCorrupts: 4}
	w.SetFaultPlan(fp)

	u := la.NewVec(p.DA.NVelDOF())
	for n := 0; n < p.DA.NNodes(); n++ {
		u[3*n] = 0.3
	}
	reg := telemetry.New()
	type rankState struct {
		pts    *Points
		st     MigrateStats
		before int
	}
	states := make([]rankState, d.Size())
	var mu sync.Mutex
	var failures []error
	w.Run(func(r *comm.Rank) {
		local := seedLocalPoints(d, NewLattice(p, 2, nil), r.ID)
		n0 := local.Len()
		AdvectRK2(p, u, 0.5, local, 1)
		sc := reg.Root().Child("mpm").Child(fmt.Sprintf("rank%d", r.ID))
		st, err := Migrate(r, d, p, local, sc)
		if err != nil {
			mu.Lock()
			failures = append(failures, fmt.Errorf("rank %d: %w", r.ID, err))
			mu.Unlock()
			return
		}
		states[r.ID] = rankState{pts: local, st: st, before: n0}
	})
	for _, err := range failures {
		t.Fatal(err)
	}
	if fp.Corruptions() != 4 {
		t.Errorf("injected %d corruptions, want the full budget of 4", fp.Corruptions())
	}

	totalBefore, totalAfter, deleted, sent, received := 0, 0, 0, 0, 0
	for rid, s := range states {
		totalBefore += s.before
		totalAfter += s.pts.Len()
		deleted += s.st.Deleted
		sent += s.st.Sent
		received += s.st.Received
		for i := 0; i < s.pts.Len(); i++ {
			if d.RankOfElement(int(s.pts.Elem[i])) != rid {
				t.Fatalf("rank %d holds foreign point in element %d", rid, s.pts.Elem[i])
			}
			// Corrupted coordinates would either fail relocation or land
			// outside the unit cube.
			if s.pts.X[i] < 0 || s.pts.X[i] > 1 || s.pts.Y[i] < 0 || s.pts.Y[i] > 1 {
				t.Fatalf("rank %d point %d has out-of-domain coordinates (%v, %v)",
					rid, i, s.pts.X[i], s.pts.Y[i])
			}
		}
	}
	if sent == 0 || received == 0 {
		t.Fatalf("no migration happened: sent %d received %d", sent, received)
	}
	if totalAfter+deleted+(sent-received) != totalBefore {
		t.Fatalf("point accounting under corruption: before %d, after %d, deleted %d, sent %d, recv %d",
			totalBefore, totalAfter, deleted, sent, received)
	}
}

// TestMigrateExchangeFailure: with total message loss the migration must
// surface a typed *comm.ExchangeError instead of deadlocking, and record
// the failure in telemetry.
func TestMigrateExchangeFailure(t *testing.T) {
	p := flatProblem(4)
	d, err := comm.NewDecomp(p.DA, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := comm.NewWorld(d.Size())
	w.SetFaultPlan(&comm.FaultPlan{Seed: 2, DropProb: 1})

	u := la.NewVec(p.DA.NVelDOF())
	for n := 0; n < p.DA.NNodes(); n++ {
		u[3*n] = 0.3
	}
	reg := telemetry.New()
	errs := make([]error, d.Size())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(func(r *comm.Rank) {
			local := seedLocalPoints(d, NewLattice(p, 2, nil), r.ID)
			AdvectRK2(p, u, 0.5, local, 1)
			sc := reg.Root().Child("mpm").Child(fmt.Sprintf("rank%d", r.ID))
			_, errs[r.ID] = Migrate(r, d, p, local, sc)
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("migration with total message loss deadlocked instead of failing")
	}
	for rid, err := range errs {
		var xe *comm.ExchangeError
		if !errors.As(err, &xe) {
			t.Fatalf("rank %d: got %v, want wrapped *comm.ExchangeError", rid, err)
		}
		sc := reg.Root().Child("mpm").Child(fmt.Sprintf("rank%d", rid))
		if sc.Counter("migrate_failures").Value() != 1 {
			t.Errorf("rank %d migrate_failures = %d, want 1", rid, sc.Counter("migrate_failures").Value())
		}
	}
}
