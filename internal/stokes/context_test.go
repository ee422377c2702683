package stokes

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"ptatin3d/internal/fem"
)

// TestContextKeyCoversConfig: every field of Config either moves the
// context key when it changes — Prepare then builds a new solver — or is
// on the list of fields Prepare hands to the cached solver on every call.
// A field added to Config without a decision fails here, so a cached
// solver can never silently keep a stale setting.
func TestContextKeyCoversConfig(t *testing.T) {
	refreshed := map[string]bool{"Params": true, "Telemetry": true, "CoeffCoarsen": true}
	p, def := sinkerProblem(4, 10, 1)
	base := sinkerConfig(p, def)
	base.Levels = 2
	key := contextKey(p, base)
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		cfg := base
		v := reflect.ValueOf(&cfg).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			if !refreshed[name] {
				t.Errorf("Config.%s (%s): neither refreshed in place nor of a kind this test can flip", name, v.Kind())
			}
			continue
		}
		if moved := contextKey(p, cfg) != key; moved == refreshed[name] {
			t.Errorf("Config.%s: context key moved = %v, refreshed in place = %v", name, moved, refreshed[name])
		}
	}

	// The refreshed fields do reach the cached solver.
	var c Context
	if _, _, err := c.Prepare(p, base); err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Params.RTol = base.Params.RTol / 10
	cfg.Params.Restart = base.Params.Restart + 7
	coarsened := false
	cfg.CoeffCoarsen = func(level int, cp *fem.Problem) {
		coarsened = true
		base.CoeffCoarsen(level, cp)
	}
	s, reused, err := c.Prepare(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reused || !coarsened || s.Cfg.Params.RTol != cfg.Params.RTol || s.Cfg.Params.Restart != cfg.Params.Restart {
		t.Fatalf("refresh: reused %v, new coarsener called %v, params %+v; want the new Params and coarsener on the cached solver",
			reused, coarsened, s.Cfg.Params)
	}
}

// TestColdStepSharesCoupling: a problem has one set of gradient/divergence
// blocks. The model's residual operator and the solver's coupled operator,
// cold-built or refreshed, all hold the object Problem.Coupling returns. A
// write to DA.Coords, which nothing announces, rebuilds its Ge in place at
// the next call, bitwise into the Ge a fresh problem on the moved mesh
// builds.
func TestColdStepSharesCoupling(t *testing.T) {
	p, def := sinkerProblem(4, 10, 1)
	cfg := sinkerConfig(p, def)
	cfg.Levels = 2
	cpl := p.Coupling()
	if p.Coupling() != cpl {
		t.Fatal("a second Coupling built new blocks")
	}
	residual := NewOp(p, nil, p.Coupling())
	var c Context
	s, reused, err := c.Prepare(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reused || s.C != cpl || s.Op.C != cpl || residual.C != cpl {
		t.Fatalf("cold build (reused %v): the solver or its operator holds other blocks than the problem's", reused)
	}
	ge, before := &cpl.Ge[0], slices.Clone(cpl.Ge)

	p.DA.Deform(func(x, y, z float64) (float64, float64, float64) {
		return x + 0.03*y*z, y, z * (1 + 0.05*math.Sin(math.Pi*x))
	})
	if p.Coupling() != cpl || &cpl.Ge[0] != ge {
		t.Fatal("the mesh move built new blocks instead of rebuilding the problem's in place")
	}
	if slices.Equal(cpl.Ge, before) {
		t.Fatal("the mesh moved and Ge did not")
	}
	fresh, _ := sinkerProblem(4, 10, 1)
	copy(fresh.DA.Coords, p.DA.Coords)
	want := fresh.Coupling().Ge
	for i := range want {
		if math.Float64bits(cpl.Ge[i]) != math.Float64bits(want[i]) {
			t.Fatalf("Ge[%d] rebuilt in place = %v, a fresh problem's %v", i, cpl.Ge[i], want[i])
		}
	}
	if s, reused, err = c.Prepare(p, cfg); err != nil {
		t.Fatal(err)
	}
	if !reused || s.C != cpl || s.Op.C != cpl {
		t.Fatalf("refresh (reused %v): the solver or its operator holds other blocks than the problem's", reused)
	}
}
