package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// TimerSnapshot is the exported form of a Timer.
type TimerSnapshot struct {
	Calls   int64   `json:"calls"`
	Seconds float64 `json:"seconds"`
}

// ScopeSnapshot is the exported form of a Scope subtree — the JSON schema
// documented in DESIGN.md, "Telemetry". Maps marshal with sorted keys; children keep
// creation order, matching the natural setup order (level0, level1, …).
type ScopeSnapshot struct {
	Name     string                   `json:"name"`
	Counters map[string]int64         `json:"counters,omitempty"`
	Timers   map[string]TimerSnapshot `json:"timers,omitempty"`
	Gauges   map[string]float64       `json:"gauges,omitempty"`
	Series   map[string][]float64     `json:"series,omitempty"`
	Children []*ScopeSnapshot         `json:"children,omitempty"`
}

// Snapshot captures the current values of the scope subtree. Returns nil
// on a nil scope.
func (s *Scope) Snapshot() *ScopeSnapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	snap := &ScopeSnapshot{Name: s.name}
	if len(s.counters) > 0 {
		snap.Counters = make(map[string]int64, len(s.counters))
		for k, c := range s.counters {
			snap.Counters[k] = c.Value()
		}
	}
	if len(s.timers) > 0 {
		snap.Timers = make(map[string]TimerSnapshot, len(s.timers))
		for k, t := range s.timers {
			snap.Timers[k] = TimerSnapshot{Calls: t.Calls(), Seconds: t.Elapsed().Seconds()}
		}
	}
	if len(s.gauges) > 0 {
		snap.Gauges = make(map[string]float64, len(s.gauges))
		for k, g := range s.gauges {
			snap.Gauges[k] = g.Value()
		}
	}
	if len(s.series) > 0 {
		snap.Series = make(map[string][]float64, len(s.series))
		for k, sr := range s.series {
			snap.Series[k] = sr.Values()
		}
	}
	order := append([]string(nil), s.childOrd...)
	children := make([]*Scope, len(order))
	for i, name := range order {
		children[i] = s.children[name]
	}
	s.mu.Unlock()
	for _, c := range children {
		snap.Children = append(snap.Children, c.Snapshot())
	}
	return snap
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Root().Snapshot()
	if snap == nil {
		snap = &ScopeSnapshot{Name: "root"}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// MarshalJSON marshals the registry snapshot.
func (r *Registry) MarshalJSON() ([]byte, error) {
	snap := r.Root().Snapshot()
	if snap == nil {
		snap = &ScopeSnapshot{Name: "root"}
	}
	return json.Marshal(snap)
}

// tableRow is one line of the rendered breakdown.
type tableRow struct {
	path    string
	calls   int64
	seconds float64
	isTimer bool
}

func collectRows(sn *ScopeSnapshot, prefix string, rows *[]tableRow) {
	if sn == nil {
		return
	}
	path := sn.Name
	if prefix != "" {
		path = prefix + "." + sn.Name
	}
	for _, k := range sortedKeys(sn.Timers) {
		t := sn.Timers[k]
		*rows = append(*rows, tableRow{path: path + "." + k, calls: t.Calls, seconds: t.Seconds, isTimer: true})
	}
	for _, k := range sortedKeys(sn.Counters) {
		*rows = append(*rows, tableRow{path: path + "." + k, calls: sn.Counters[k]})
	}
	for _, c := range sn.Children {
		collectRows(c, path, rows)
	}
}

// WriteTable renders the registry as an aligned per-component breakdown —
// the shape of the paper's Table IV (and the per-level rows of Table II):
// one row per timer/counter with its call count, accumulated wall time and
// time per call. Rows are grouped by scope in creation order; instruments
// within a scope sort lexicographically. Gauges and series are summarized
// beneath the table.
func (r *Registry) WriteTable(w io.Writer) {
	sn := r.Root().Snapshot()
	if sn == nil {
		fmt.Fprintln(w, "telemetry: disabled")
		return
	}
	var rows []tableRow
	// Skip the "root" prefix for readability.
	for _, k := range sortedKeys(sn.Timers) {
		t := sn.Timers[k]
		rows = append(rows, tableRow{path: k, calls: t.Calls, seconds: t.Seconds, isTimer: true})
	}
	for _, k := range sortedKeys(sn.Counters) {
		rows = append(rows, tableRow{path: k, calls: sn.Counters[k]})
	}
	for _, c := range sn.Children {
		collectRows(c, "", &rows)
	}
	width := len("component")
	for _, row := range rows {
		if len(row.path) > width {
			width = len(row.path)
		}
	}
	fmt.Fprintf(w, "%-*s %10s %12s %14s\n", width, "component", "calls", "time(s)", "time/call(ms)")
	for _, row := range rows {
		if row.isTimer {
			perCall := 0.0
			if row.calls > 0 {
				perCall = row.seconds / float64(row.calls) * 1e3
			}
			fmt.Fprintf(w, "%-*s %10d %12.4f %14.4f\n", width, row.path, row.calls, row.seconds, perCall)
		} else {
			fmt.Fprintf(w, "%-*s %10d %12s %14s\n", width, row.path, row.calls, "-", "-")
		}
	}
	writeExtras(w, sn, "")
}

func writeExtras(w io.Writer, sn *ScopeSnapshot, prefix string) {
	if sn == nil {
		return
	}
	path := sn.Name
	if prefix == "" && sn.Name == "root" {
		path = ""
	} else if prefix != "" {
		path = prefix + "." + sn.Name
	}
	dot := func(k string) string {
		if path == "" {
			return k
		}
		return path + "." + k
	}
	for _, k := range sortedKeys(sn.Gauges) {
		fmt.Fprintf(w, "%s = %g\n", dot(k), sn.Gauges[k])
	}
	for _, k := range sortedKeys(sn.Series) {
		v := sn.Series[k]
		if len(v) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s: %d samples, first %.6e, last %.6e\n", dot(k), len(v), v[0], v[len(v)-1])
	}
	for _, c := range sn.Children {
		writeExtras(w, c, path)
	}
}
