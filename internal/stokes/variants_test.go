package stokes

import (
	"testing"

	"ptatin3d/internal/fem"
	"ptatin3d/internal/la"
)

// TestUzawaConvergesAndMatches: the classical Uzawa iteration (§III-B's
// well-known SCR family member) converges on the sinker and agrees with
// the field-split solution.
func TestUzawaConvergesAndMatches(t *testing.T) {
	p, def := sinkerProblem(4, 100, 1)
	cfg := sinkerConfig(p, def)
	cfg.Levels = 2
	cfg.Params.RTol = 1e-8
	s, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bu := la.NewVec(p.DA.NVelDOF())
	fem.MomentumRHS(p, bu)

	// Reference field-split solve.
	x1 := la.NewVec(s.Op.N())
	if res := s.Solve(x1, bu, nil); !res.Converged {
		t.Fatal("fieldsplit reference failed")
	}

	// Uzawa on the same system.
	uz := NewUzawa(s.Op, s.MG, s.Mp)
	uz.OuterParams.RTol = 1e-7
	b := la.NewVec(s.Op.N())
	fpart, _ := s.Op.Split(b)
	fpart.Copy(bu)
	x2 := la.NewVec(s.Op.N())
	res := uz.Solve(b, x2)
	if !res.Converged {
		t.Fatalf("Uzawa failed: %d its rel %.2e", res.Iterations, res.Residual/res.Residual0)
	}
	u1, _ := s.Op.Split(x1)
	u2, _ := s.Op.Split(x2)
	du := u1.Clone()
	du.AXPY(-1, u2)
	if rel := du.Norm2() / u1.Norm2(); rel > 1e-3 {
		t.Fatalf("Uzawa velocity differs from fieldsplit by %.2e", rel)
	}
}
