package ptatin3d_test

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"ptatin3d/internal/comm"
	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/scenario"
	"ptatin3d/internal/stokes"
	"ptatin3d/internal/telemetry"
)

// sinker3Problem builds the 3-sinker §IV-B configuration with projected
// coefficients installed, the same geometry the golden_sinker3 record pins.
func sinker3Problem() *fem.Problem {
	o := scenario.DefaultSinkerOptions()
	o.M = 8
	o.Nc = 3
	o.Rc = 0.18
	o.DeltaEta = 100
	return scenario.MustCompile(scenario.Sinker(o), 1).Prob
}

// TestGoldenRecoverySinker3 is the end-to-end fault/recovery regression:
// the 3-sinker viscous operator is applied across a 2×2 rank decomposition
// by the halo apply of the distributed V-cycle (comm.Dist.ApplyElements)
// while the fault plan drops four halo envelopes and stalls rank 1 at its
// first exchange. The reliable-exchange layer must recover every payload —
// the distributed result is checked against the sequential operator to
// solver precision — and afterwards the standard solve must still match
// the golden_sinker3 record, proving recovery leaves no numerical residue.
func TestGoldenRecoverySinker3(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	prob := sinker3Problem()
	da := prob.DA
	n := da.NVelDOF()

	u := la.NewVec(n)
	for i := range u {
		// Deterministic, smooth, nonzero test field.
		u[i] = math.Sin(0.1*float64(i)) + 0.01*float64(i%7)
	}
	ref := la.NewVec(n)
	fem.NewTensor(prob).Apply(u, ref)

	d, err := comm.NewDecomp(da, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := comm.NewWorld(d.Size())
	fp := &comm.FaultPlan{
		Seed: 42, DropProb: 1, MaxDrops: 4,
		StallRank: 1, StallExchange: 0, StallDuration: 50 * time.Millisecond,
	}
	w.SetFaultPlan(fp)

	reg := telemetry.New()
	results := make([]la.Vec, d.Size())
	var mu sync.Mutex
	w.Run(func(r *comm.Rank) {
		y := la.NewVec(n)
		sc := reg.Root().Child("halo").Child(fmt.Sprintf("rank%d", r.ID))
		dist := comm.NewDist(r, comm.NewLayout(d, r.ID), sc)
		if err := dist.ApplyElements(fem.NewTensor(prob), prob.BC.Mask, u, y); err != nil {
			t.Errorf("rank %d: %v", r.ID, err)
		}
		mu.Lock()
		results[r.ID] = y
		mu.Unlock()
	})

	// The full fault budget must have been spent and recovered from.
	if fp.Drops() != 4 {
		t.Errorf("injected %d drops, want 4", fp.Drops())
	}
	if fp.Stalls() != 1 {
		t.Errorf("injected %d stalls, want 1", fp.Stalls())
	}
	var retries int64
	for rid := 0; rid < d.Size(); rid++ {
		retries += reg.Root().Child("halo").Child(fmt.Sprintf("rank%d", rid)).Counter("retries").Value()
	}
	if retries == 0 {
		t.Error("faults recovered without a single retry — injection did not reach the exchange path")
	}

	// Every rank's result must match the sequential operator on the nodes
	// it touches, to the same tolerance the fault-free distributed test
	// uses: recovery must be exact, not approximate.
	scale := ref.NormInf()
	var nodes [27]int32
	for rid := 0; rid < d.Size(); rid++ {
		touched := map[int32]bool{}
		for _, e := range d.LocalElements(rid) {
			da.ElemNodes(e, &nodes)
			for _, nn := range nodes {
				touched[nn] = true
			}
		}
		for nn := range touched {
			for c := 0; c < 3; c++ {
				dd := 3*int(nn) + c
				if math.Abs(results[rid][dd]-ref[dd]) > 1e-11*scale {
					t.Fatalf("rank %d node %d comp %d: %v, want %v after recovery",
						rid, nn, c, results[rid][dd], ref[dd])
				}
			}
		}
	}

	// The standard solve on the same configuration must still reproduce the
	// golden record.
	rec := sinker3Record(t, stokes.DefaultConfig().FineKind)
	checkGolden(t, "golden_sinker3", rec, stokes.DefaultConfig().Params.RTol)
}
