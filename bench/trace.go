package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"ptatin3d/internal/krylov"
	"ptatin3d/internal/la"
	"ptatin3d/internal/model"
	"ptatin3d/internal/stokes"
)

// Span names recorded around calls into the program's layers.
const (
	spanStep   = "model.step"
	spanSolve  = "krylov.solve"
	spanMatvec = "stokes.matvec"
	spanPC     = "stokes.pc_apply"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch; Parent indexes the span that caused it (-1
// for a root); Step is the time step the span belongs to (0 = warm-up).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Step   int    `json:"step"`
}

// tracer keeps spans in memory until the run ends. Every call the
// harness wraps happens on the stepping goroutine (the inner Krylov
// method applies its operator and preconditioner serially), so the open
// span is a plain stack with no locking. A disabled tracer records
// nothing.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  int // innermost open span, -1 when none
	step  int
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, epoch: time.Now(), open: -1}
}

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: t.open, Step: t.step, Start: int64(time.Since(t.epoch))})
	t.open = len(t.spans) - 1
	return t.open
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.spans[id].Parent
}

// spanTotals sums span durations and self times by name over the timed
// steps (Step >= 1). A span's self time is its duration minus the part
// its children cover.
type spanTotals struct {
	total, self map[string]time.Duration
	calls       map[string]int
}

func (t *tracer) totals() spanTotals {
	st := spanTotals{
		total: map[string]time.Duration{},
		self:  map[string]time.Duration{},
		calls: map[string]int{},
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		if s.Step < 1 {
			continue
		}
		d := s.End - s.Start
		st.total[s.Name] += time.Duration(d)
		st.self[s.Name] += time.Duration(d - child[i])
		st.calls[s.Name]++
	}
	return st
}

// spanCost calibrates what recording one span costs, by timing empty
// begin/end pairs on a scratch tracer.
func spanCost() time.Duration {
	const n = 200000
	t := newTracer(true)
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin(spanMatvec))
	}
	return time.Since(start) / n
}

// write stores the spans as one JSON document.
func (t *tracer) write(path, workloadName string, seed int64) error {
	doc := struct {
		Schema   string `json:"schema"`
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{schemaVersion, workloadName, seed, t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// recBackend is the delegating Stokes backend the harness installs. It
// always keeps each inner solve's krylov.Result (the failure check reads
// them); with tracing on it also records a krylov.solve span and wraps
// the operator and preconditioner it is handed, so their applications
// become child spans. The distributed backend ignores that pair (dist.go
// runs its own per-rank operator), so its solves have no children.
type recBackend struct {
	inner   model.StokesBackend
	tr      *tracer
	results []krylov.Result
	comm    stokes.RankStats // summed over ranks and steps since takeComm
}

func (b *recBackend) Name() string { return b.inner.Name() }

// PicardOnly forwards the capability check SolveStokes makes.
func (b *recBackend) PicardOnly() bool {
	po, ok := b.inner.(interface{ PicardOnly() bool })
	return ok && po.PicardOnly()
}

// TakeCommStats forwards model.CommStatsReporter, keeping a running sum.
func (b *recBackend) TakeCommStats() []stokes.RankStats {
	rep, ok := b.inner.(model.CommStatsReporter)
	if !ok {
		return nil
	}
	ranks := rep.TakeCommStats()
	for _, r := range ranks {
		b.comm.Add(r)
	}
	return ranks
}

func (b *recBackend) LinearSolve(s *stokes.Solver, method string, jop krylov.Op, pc krylov.Preconditioner, rhs, delta la.Vec, prm krylov.Params) krylov.Result {
	id := b.tr.begin(spanSolve)
	if b.tr.on {
		jop = tracedOp{jop, b.tr}
		pc = tracedPC{pc, b.tr}
	}
	r := b.inner.LinearSolve(s, method, jop, pc, rhs, delta, prm)
	b.tr.end(id)
	b.results = append(b.results, r)
	return r
}

// takeResults returns the inner-solve results recorded since the last
// call.
func (b *recBackend) takeResults() []krylov.Result {
	out := b.results
	b.results = nil
	return out
}

type tracedOp struct {
	krylov.Op
	tr *tracer
}

func (o tracedOp) Apply(x, y la.Vec) {
	id := o.tr.begin(spanMatvec)
	o.Op.Apply(x, y)
	o.tr.end(id)
}

type tracedPC struct {
	krylov.Preconditioner
	tr *tracer
}

func (p tracedPC) Apply(r, z la.Vec) {
	id := p.tr.begin(spanPC)
	p.Preconditioner.Apply(r, z)
	p.tr.end(id)
}
