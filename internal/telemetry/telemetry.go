// Package telemetry is the structured instrumentation layer of the solver
// stack — the machinery behind the paper's evaluation (§IV, Tables II–IV),
// which rests entirely on per-component operator counts and wall times.
//
// The design goal is zero cost when disabled: every instrument type
// (Counter, Timer, Gauge, Series, Scope) is nil-safe, and a nil handle
// reduces every recording call to a single pointer comparison — no locks,
// no clock reads, no allocations. Instrumented code therefore holds plain
// handles obtained once at setup time and records unconditionally:
//
//	type solver struct{ smooth *telemetry.Timer }
//	...
//	st := s.smooth.Start() // zero Time, no clock read, when nil
//	doWork()
//	s.smooth.Stop(st)
//
// Handles come from a Scope, the hierarchical namespace: a Registry owns
// the root Scope; components create child scopes ("mg" → "level0" …) and
// named instruments inside them. All instruments are safe for concurrent
// use (atomics for counters/timers/gauges, a mutex for series), so worker
// goroutines may record into shared handles under the race detector.
//
// Snapshots are exported as JSON (Registry.WriteJSON, see DESIGN.md,
// "Telemetry", for the schema) or rendered as an aligned text table (Registry.WriteTable)
// shaped like the per-component time breakdowns of paper Tables II/IV.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Timer accumulates call counts and wall time of a code region.
type Timer struct {
	calls atomic.Int64
	ns    atomic.Int64
}

// Start returns the region start time. On a nil receiver it returns the
// zero Time without reading the clock, so a disabled timer costs exactly
// one nil check per Start/Stop pair.
func (t *Timer) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// Stop records one call of duration time.Since(start). No-op on nil.
func (t *Timer) Stop(start time.Time) {
	if t == nil {
		return
	}
	t.calls.Add(1)
	t.ns.Add(int64(time.Since(start)))
}

// Observe records one call of an externally measured duration.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.calls.Add(1)
	t.ns.Add(int64(d))
}

// Calls returns the number of recorded calls (0 on nil).
func (t *Timer) Calls() int64 {
	if t == nil {
		return 0
	}
	return t.calls.Load()
}

// Elapsed returns the accumulated wall time (0 on nil).
func (t *Timer) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.ns.Load())
}

// Gauge is a last-value instrument (e.g. final residual norm, setup time).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores x. No-op on a nil receiver.
func (g *Gauge) Set(x float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(x))
}

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Series is an append-only float trace (per-iteration residual norms).
// Appends take a mutex — series belong on iteration boundaries, not in
// inner kernels.
type Series struct {
	mu sync.Mutex
	v  []float64
}

// Append records the next sample. No-op on a nil receiver.
func (s *Series) Append(x float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

// Values returns a copy of the samples (nil on nil receiver).
func (s *Series) Values() []float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(s.v))
	copy(out, s.v)
	return out
}

// Scope is a node of the hierarchical instrument namespace. Instruments
// and child scopes are created on first use and are stable thereafter, so
// handles can be cached at setup time. All methods are nil-safe: a nil
// Scope yields nil instruments and nil children, making an entire
// instrumented subsystem free when telemetry is off.
type Scope struct {
	name string

	mu       sync.Mutex
	children map[string]*Scope
	childOrd []string
	counters map[string]*Counter
	timers   map[string]*Timer
	gauges   map[string]*Gauge
	series   map[string]*Series
}

// Child returns (creating if needed) the named child scope, or nil on a
// nil receiver.
func (s *Scope) Child(name string) *Scope {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.children == nil {
		s.children = map[string]*Scope{}
	}
	c, ok := s.children[name]
	if !ok {
		c = &Scope{name: name}
		s.children[name] = c
		s.childOrd = append(s.childOrd, name)
	}
	return c
}

// Counter returns (creating if needed) the named counter, or nil.
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.counters == nil {
		s.counters = map[string]*Counter{}
	}
	c, ok := s.counters[name]
	if !ok {
		c = &Counter{}
		s.counters[name] = c
	}
	return c
}

// Timer returns (creating if needed) the named timer, or nil.
func (s *Scope) Timer(name string) *Timer {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.timers == nil {
		s.timers = map[string]*Timer{}
	}
	t, ok := s.timers[name]
	if !ok {
		t = &Timer{}
		s.timers[name] = t
	}
	return t
}

// Gauge returns (creating if needed) the named gauge, or nil.
func (s *Scope) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gauges == nil {
		s.gauges = map[string]*Gauge{}
	}
	g, ok := s.gauges[name]
	if !ok {
		g = &Gauge{}
		s.gauges[name] = g
	}
	return g
}

// Series returns (creating if needed) the named series, or nil.
func (s *Scope) Series(name string) *Series {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.series == nil {
		s.series = map[string]*Series{}
	}
	sr, ok := s.series[name]
	if !ok {
		sr = &Series{}
		s.series[name] = sr
	}
	return sr
}

// sortedKeys returns the map keys in lexicographic order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Registry owns a telemetry tree. The zero value is not usable; a nil
// *Registry behaves as "telemetry off" (its Root is nil).
type Registry struct {
	root *Scope
}

// New creates an empty registry whose root scope is named "root".
func New() *Registry {
	return &Registry{root: &Scope{name: "root"}}
}

// Root returns the root scope (nil on a nil registry).
func (r *Registry) Root() *Scope {
	if r == nil {
		return nil
	}
	return r.root
}
