package stokes

import (
	"reflect"
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

// TestColdStepSharesCoupling: before any solver exists, the blocks that
// Coupling builds for the first residual are the ones the cold build in
// the next Prepare on the same problem takes over, so the first step sets
// them up once; a later Coupling returns the cached solver's. A mesh move
// announced in between is set up on those same blocks.
func TestColdStepSharesCoupling(t *testing.T) {
	p, def := sinkerProblem(4, 10, 1)
	cfg := sinkerConfig(p, def)
	cfg.Levels = 2
	for _, moved := range []bool{false, true} {
		var c Context
		cpl := c.Coupling(p)
		if again := c.Coupling(p); again != cpl {
			t.Fatalf("moved=%v: a second Coupling before Prepare built new blocks", moved)
		}
		if moved {
			c.InvalidateGeometry()
		}
		s, reused, err := c.Prepare(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if reused || s.C != cpl {
			t.Fatalf("moved=%v: the cold solver built its own coupling (reused %v)", moved, reused)
		}
		if c.Coupling(p) != cpl {
			t.Fatalf("moved=%v: Coupling after Prepare is not the solver's", moved)
		}
	}
}
