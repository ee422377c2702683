package comm

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
	"ptatin3d/internal/mesh"
	"ptatin3d/internal/par"
	"ptatin3d/internal/telemetry"
)

// TestConcurrentParAndHaloStress hammers the two parallel layers at once —
// the shared-memory worker pool (par.For) and the simulated-MPI halo
// exchange (Dist.ApplyElements) — with every rank recording into its own
// telemetry scope. It runs in short mode by design: together with -race it is
// the tier-1 regression net for data races between the worker pool, the
// rank runtime and the telemetry instruments.
func TestConcurrentParAndHaloStress(t *testing.T) {
	reg := telemetry.New()

	da := mesh.New(4, 4, 4, 0, 1, 0, 1, 0, 1)
	da.Deform(func(x, y, z float64) (float64, float64, float64) {
		return x + 0.03*math.Sin(math.Pi*y), y, z + 0.02*x*y
	})
	bc := mesh.NewBC(da)
	bc.FreeSlipBox(da, mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin)
	prob := fem.NewProblem(da, bc)
	prob.SetCoefficientsFunc(func(x, y, z float64) float64 {
		return math.Exp(math.Sin(3*x) * math.Cos(2*y))
	}, nil)

	n := da.NVelDOF()
	rng := rand.New(rand.NewSource(7))
	u := la.NewVec(n)
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	ref := la.NewVec(n)
	fem.NewTensor(prob).Apply(u, ref)
	scale := ref.NormInf()

	d, err := NewDecomp(da, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}

	iters := 8
	if testing.Short() {
		iters = 3
	}

	var wg sync.WaitGroup

	// Shared-memory side: concurrent par.For sweeps.
	parErr := make(chan string, 1)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters*4; it++ {
				var mu sync.Mutex
				total := 0
				par.For(4, 1000, func(lo, hi int) {
					mu.Lock()
					total += hi - lo
					mu.Unlock()
				})
				if total != 1000 {
					select {
					case parErr <- "par.For lost work":
					default:
					}
					return
				}
			}
		}()
	}

	// Nested-dispatch side: bodies already running on the pool call
	// par.For again with a different worker count — this is the pattern
	// the slab apply uses when an operator application runs inside a
	// rank body, and it must neither deadlock nor lose work.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters*2; it++ {
				var total int64
				var mu sync.Mutex
				par.For(2+g, 8, func(olo, ohi int) {
					for o := olo; o < ohi; o++ {
						par.For(3, 100, func(lo, hi int) {
							mu.Lock()
							total += int64(hi - lo)
							mu.Unlock()
						})
					}
				})
				if total != 800 {
					select {
					case parErr <- "nested par.For lost work":
					default:
					}
					return
				}
			}
		}(g)
	}

	// Distributed side: repeated halo-exchanged operator applications, each
	// rank recording into its own telemetry scope.
	mpmScope := reg.Root().Child("stress")
	var resMu sync.Mutex
	results := make([]la.Vec, d.Size())
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < iters; it++ {
			w := NewWorld(d.Size())
			w.Run(func(r *Rank) {
				sc := mpmScope.Child("rank" + string(rune('0'+r.ID)))
				stop := sc.Timer("apply").Start()
				y := la.NewVec(n)
				dist := NewDist(r, NewLayout(d, r.ID), sc)
				if err := dist.ApplyElements(fem.NewTensor(prob), prob.BC.Mask, u, y); err != nil {
					t.Errorf("rank %d: %v", r.ID, err)
				}
				sc.Timer("apply").Stop(stop)
				sc.Counter("applies").Inc()
				resMu.Lock()
				results[r.ID] = y
				resMu.Unlock()
			})
		}
	}()

	// Telemetry reader: concurrent snapshots while both sides record.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < iters*2; it++ {
			sn := reg.Root().Snapshot()
			if sn == nil {
				return
			}
		}
	}()

	wg.Wait()
	select {
	case msg := <-parErr:
		t.Fatal(msg)
	default:
	}

	// The distributed results must still be correct after the stress run.
	var nodes [27]int32
	for rid := 0; rid < d.Size(); rid++ {
		for _, e := range d.LocalElements(rid) {
			da.ElemNodes(e, &nodes)
			for _, nn := range nodes {
				for c := 0; c < 3; c++ {
					dd := 3*int(nn) + c
					if math.Abs(results[rid][dd]-ref[dd]) > 1e-11*scale {
						t.Fatalf("rank %d dof %d: %v, want %v", rid, dd, results[rid][dd], ref[dd])
					}
				}
			}
		}
	}
	// And the per-rank telemetry must account for every application.
	for rid := 0; rid < d.Size(); rid++ {
		sc := mpmScope.Child("rank" + string(rune('0'+rid))).Snapshot()
		if sc.Counters["applies"] != int64(iters) {
			t.Fatalf("rank %d telemetry lost applications: %+v", rid, sc)
		}
	}
}
