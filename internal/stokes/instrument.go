package stokes

import (
	"time"

	"ptatin3d/internal/la"
	"ptatin3d/internal/telemetry"
)

// OpProbe wraps a linear operator, recording call counts and wall time
// into a telemetry timer. It provides the "MatMult" column of Table IV.
// The Solver always backs its probes with a registry (a private one when
// Config.Telemetry is nil), so Elapsed is always live.
type OpProbe struct {
	Inner interface {
		N() int
		Apply(x, y la.Vec)
	}
	t *telemetry.Timer
}

// NewOpProbe wraps inner, recording into t (nil t records nothing).
func NewOpProbe(inner interface {
	N() int
	Apply(x, y la.Vec)
}, t *telemetry.Timer) *OpProbe {
	return &OpProbe{Inner: inner, t: t}
}

// N returns the wrapped dimension.
func (p *OpProbe) N() int { return p.Inner.N() }

// Apply times one operator application.
func (p *OpProbe) Apply(x, y la.Vec) {
	st := p.t.Start()
	p.Inner.Apply(x, y)
	p.t.Stop(st)
}

// Elapsed reports the accumulated application wall time.
func (p *OpProbe) Elapsed() time.Duration { return p.t.Elapsed() }

// PCProbe wraps a preconditioner, recording call counts and wall time into
// a telemetry timer. It provides the "PC apply" column of Table IV and the
// coarse-solve timings of Table II.
type PCProbe struct {
	Inner interface{ Apply(r, z la.Vec) }
	t     *telemetry.Timer
}

// NewPCProbe wraps inner, recording into t (nil t records nothing).
func NewPCProbe(inner interface{ Apply(r, z la.Vec) }, t *telemetry.Timer) *PCProbe {
	return &PCProbe{Inner: inner, t: t}
}

// Apply times one preconditioner application.
func (p *PCProbe) Apply(r, z la.Vec) {
	st := p.t.Start()
	p.Inner.Apply(r, z)
	p.t.Stop(st)
}

// Elapsed reports the accumulated application wall time.
func (p *PCProbe) Elapsed() time.Duration { return p.t.Elapsed() }
