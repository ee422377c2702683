package perfmodel

import (
	"testing"

	"ptatin3d/internal/comm"
	"ptatin3d/internal/fem"
	"ptatin3d/internal/mesh"
)

func TestPaperTableIShape(t *testing.T) {
	rows := PaperTableI()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]OpCounts{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// The paper's central inequalities.
	if !(byName["Tensor"].Flops < byName["Matrix-free"].Flops) {
		t.Fatal("tensor must do fewer flops than MF")
	}
	if !(byName["Assembled"].BytesPerfect > 10*byName["Tensor"].BytesPerfect) {
		t.Fatal("assembled must stream far more bytes")
	}
	// Matrix-free intensity is far above hardware balance (paper: 22.5–53
	// flops/byte).
	ai := byName["Matrix-free"]
	if ai.ArithmeticIntensity(true) < 20 || ai.ArithmeticIntensity(false) < 10 {
		t.Fatalf("MF intensity %v/%v too low", ai.ArithmeticIntensity(true), ai.ArithmeticIntensity(false))
	}
}

func TestReproCountsRelations(t *testing.T) {
	rows := ReproCounts()
	byName := map[string]OpCounts{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if !(byName["Tensor"].Flops < byName["Matrix-free"].Flops/3) {
		t.Fatal("tensor product must save ~3× flops over dense MF")
	}
	if !(byName["TensorC"].Flops < byName["Tensor"].Flops) {
		t.Fatal("stored-coefficient variant must do fewer flops")
	}
	if !(byName["TensorC"].BytesPerfect > byName["Tensor"].BytesPerfect) {
		t.Fatal("stored-coefficient variant must stream more bytes")
	}
	for _, r := range rows {
		if r.Flops <= 0 || r.BytesPerfect <= 0 || r.BytesPessimal < r.BytesPerfect {
			t.Fatalf("%s counts inconsistent: %+v", r.Name, r)
		}
	}
}

func TestRooflineClassification(t *testing.T) {
	// A machine with 10 GB/s and 10 GF/s (balance 1 flop/byte): the
	// assembled variant (AI ≈ 0.125) is memory bound, the tensor variant
	// (AI ≈ 15+) compute bound — the paper's qualitative claim.
	m := Machine{StreamBW: 10e9, FlopRate: 10e9}
	rows := ReproCounts()
	var asm, tens OpCounts
	for _, r := range rows {
		switch r.Name {
		case "Assembled":
			asm = r
		case "Tensor":
			tens = r
		}
	}
	if !m.MemoryBound(asm, true) {
		t.Fatal("assembled SpMV should be memory bound")
	}
	if m.MemoryBound(tens, true) {
		t.Fatal("tensor kernel should be compute bound")
	}
	// Roofline times are consistent with the binding resource.
	if got, want := m.RooflineTime(asm, true), asm.BytesPerfect/m.StreamBW; got != want {
		t.Fatalf("asm roofline %v, want %v", got, want)
	}
	if got, want := m.RooflineTime(tens, true), tens.Flops/m.FlopRate; got != want {
		t.Fatalf("tensor roofline %v, want %v", got, want)
	}
}

func TestMeasurementsSane(t *testing.T) {
	bw := MeasureStream(1<<20, 2)
	if bw < 1e8 || bw > 1e13 {
		t.Fatalf("triad bandwidth implausible: %e B/s", bw)
	}
	fl := MeasureFlops(1<<18, 2)
	if fl < 1e7 || fl > 1e12 {
		t.Fatalf("flop rate implausible: %e F/s", fl)
	}
	// The vector ceiling exists exactly where the element kernel has a
	// vector encoding, and four lanes cannot be slower than one.
	switch vf := MeasureVectorFlops(1<<18, 3); {
	case fem.KernelName() != "avx2":
		if vf != 0 {
			t.Fatalf("vector rate %e F/s without a vector kernel", vf)
		}
	case vf < fl || vf > 1e13:
		t.Fatalf("vector rate implausible: %e F/s against %e scalar", vf, fl)
	}
}

// TestGhostNodesMatchesLayout cross-checks the analytic ghost-region
// model against the actual exchange lists of comm.Layout: the predicted
// ghost count must equal the total length of the Ghost lists for every
// rank of several decompositions.
func TestGhostNodesMatchesLayout(t *testing.T) {
	da := mesh.New(6, 4, 3, 0, 1, 0, 1, 0, 1)
	for _, pg := range [][3]int{{2, 2, 1}, {3, 1, 1}, {2, 2, 3}, {1, 1, 1}} {
		d, err := comm.NewDecomp(da, pg[0], pg[1], pg[2])
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < d.Size(); r++ {
			l := comm.NewLayout(d, r)
			var actual int
			for _, g := range l.Ghost {
				actual += len(g)
			}
			pi, pj, pk := d.RankIJK(r)
			pred := GhostNodes(da.Mx, da.My, da.Mz, pg[0], pg[1], pg[2], pi, pj, pk)
			if pred != actual {
				t.Errorf("%v rank %d: predicted %d ghost nodes, layout has %d", pg, r, pred, actual)
			}
			if m := MaxGhostNodes(da.Mx, da.My, da.Mz, pg[0], pg[1], pg[2]); m < pred {
				t.Errorf("%v: max %d < rank %d count %d", pg, m, r, pred)
			}
		}
	}
	if HaloExchangeBytes(10) != 280 {
		t.Errorf("HaloExchangeBytes(10) = %v, want 280", HaloExchangeBytes(10))
	}
}
