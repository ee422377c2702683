package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: every instrument and the scope itself must be fully
// usable through nil receivers — the "telemetry off" contract.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	sc := reg.Root()
	if sc != nil {
		t.Fatal("nil registry must have nil root")
	}
	child := sc.Child("mg").Child("level0")
	if child != nil {
		t.Fatal("nil scope must produce nil children")
	}
	c := sc.Counter("x")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	tm := sc.Timer("t")
	st := tm.Start()
	if !st.IsZero() {
		t.Fatal("nil timer Start must not read the clock")
	}
	tm.Stop(st)
	tm.Observe(time.Second)
	if tm.Calls() != 0 || tm.Elapsed() != 0 {
		t.Fatal("nil timer must read 0")
	}
	g := sc.Gauge("g")
	g.Set(3.14)
	if g.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	sr := sc.Series("s")
	sr.Append(1)
	if sr.Values() != nil {
		t.Fatal("nil series must be empty")
	}
	if snap := sc.Snapshot(); snap != nil {
		t.Fatal("nil scope snapshot must be nil")
	}
	// Rendering a nil registry must not panic.
	var buf bytes.Buffer
	reg.WriteTable(&buf)
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestInstrumentValues: basic record/read round trips.
func TestInstrumentValues(t *testing.T) {
	reg := New()
	sc := reg.Root().Child("solver")
	c := sc.Counter("iterations")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	tm := sc.Timer("apply")
	tm.Observe(2 * time.Millisecond)
	tm.Observe(3 * time.Millisecond)
	if tm.Calls() != 2 || tm.Elapsed() != 5*time.Millisecond {
		t.Fatalf("timer = %d calls %v", tm.Calls(), tm.Elapsed())
	}
	st := tm.Start()
	tm.Stop(st)
	if tm.Calls() != 3 {
		t.Fatalf("timer calls = %d, want 3", tm.Calls())
	}
	g := sc.Gauge("residual")
	g.Set(1e-6)
	if g.Value() != 1e-6 {
		t.Fatalf("gauge = %v", g.Value())
	}
	sr := sc.Series("trace")
	sr.Append(1)
	sr.Append(0.5)
	if v := sr.Values(); len(v) != 2 || v[1] != 0.5 {
		t.Fatalf("series = %v", v)
	}
}

// TestHandleStability: repeated lookups return the same instrument, so
// handles cached at setup observe later recordings.
func TestHandleStability(t *testing.T) {
	reg := New()
	a := reg.Root().Child("mg").Counter("cycles")
	b := reg.Root().Child("mg").Counter("cycles")
	if a != b {
		t.Fatal("counter handle not stable")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("handles must share state")
	}
}

// TestConcurrentRecording: instruments must be race-free under parallel
// recording (run with -race).
func TestConcurrentRecording(t *testing.T) {
	reg := New()
	sc := reg.Root().Child("par")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := sc.Counter("items")
			tm := sc.Timer("busy")
			sr := sc.Series("trace")
			for i := 0; i < 1000; i++ {
				c.Inc()
				tm.Observe(time.Microsecond)
				if i%100 == 0 {
					sr.Append(float64(i))
				}
				sc.Gauge("last").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if sc.Counter("items").Value() != 8000 {
		t.Fatalf("lost counts: %d", sc.Counter("items").Value())
	}
	if sc.Timer("busy").Calls() != 8000 {
		t.Fatalf("lost timer calls: %d", sc.Timer("busy").Calls())
	}
	if n := len(sc.Series("trace").Values()); n != 80 {
		t.Fatalf("lost series points: %d", n)
	}
}

// TestSnapshotAndJSON: the exported tree must contain the recorded values
// under the documented schema.
func TestSnapshotAndJSON(t *testing.T) {
	reg := New()
	mg := reg.Root().Child("mg")
	l0 := mg.Child("level0")
	l0.Timer("smooth").Observe(10 * time.Millisecond)
	l0.Timer("smooth").Observe(10 * time.Millisecond)
	l0.Counter("cycles").Add(7)
	mg.Child("level1").Timer("smooth").Observe(time.Millisecond)
	reg.Root().Gauge("setup_seconds").Set(0.25)
	reg.Root().Series("residual").Append(1)
	reg.Root().Series("residual").Append(1e-5)

	snap := reg.Root().Snapshot()
	if len(snap.Children) != 1 || snap.Children[0].Name != "mg" || len(snap.Children[0].Children) != 2 {
		t.Fatalf("snapshot tree wrong: %+v", snap)
	}
	lv0 := snap.Children[0].Children[0]
	if lv0.Name != "level0" || lv0.Timers["smooth"].Calls != 2 || lv0.Counters["cycles"] != 7 {
		t.Fatalf("level0 snapshot wrong: %+v", lv0)
	}

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back ScopeSnapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	// Children keep creation order: level0 before level1.
	mgSnap := back.Children[0]
	if len(mgSnap.Children) != 2 || mgSnap.Children[0].Name != "level0" {
		t.Fatalf("child order: %+v", mgSnap.Children)
	}
	if got := mgSnap.Children[0].Counters["cycles"]; got != 7 {
		t.Fatalf("JSON cycles = %d, want 7", got)
	}
	if back.Gauges["setup_seconds"] != 0.25 {
		t.Fatalf("JSON gauge = %v", back.Gauges["setup_seconds"])
	}
	if len(back.Series["residual"]) != 2 {
		t.Fatalf("JSON series = %v", back.Series["residual"])
	}
}

// TestWriteTable: the rendered breakdown lists every instrument with its
// call count.
func TestWriteTable(t *testing.T) {
	reg := New()
	reg.Root().Child("outer").Timer("matmult").Observe(time.Millisecond)
	reg.Root().Child("mg").Child("level0").Timer("smooth").Observe(time.Millisecond)
	reg.Root().Child("mg").Child("level0").Counter("cycles").Add(3)
	var buf bytes.Buffer
	reg.WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"component", "outer.matmult", "mg.level0.smooth", "mg.level0.cycles"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
