package par

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"ptatin3d/internal/telemetry"
)

func TestForCoversRangeOnce(t *testing.T) {
	for _, nw := range []int{1, 2, 3, 7, 16, 100} {
		for _, n := range []int{0, 1, 5, 64, 1000} {
			hits := make([]int32, n)
			For(nw, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("nw=%d n=%d: index %d visited %d times", nw, n, i, h)
				}
			}
		}
	}
}

// TestChunkBalance is the table-driven regression test for the chunking
// edge case: the old ceil(n/nworkers) split could leave trailing workers
// with empty chunks (e.g. nworkers=4, n=6 → chunks 2,2,2,∅). The balanced
// partition must produce exactly min(nworkers, n) non-empty chunks whose
// sizes differ by at most one, covering [0,n) contiguously.
func TestChunkBalance(t *testing.T) {
	cases := []struct{ nworkers, n int }{
		{1, 0}, {4, 0}, {1, 1}, {2, 1}, {100, 1},
		{2, 3}, {3, 2}, {4, 5}, {4, 6}, {4, 7}, {4, 8},
		{5, 9}, {7, 10}, {8, 9}, {16, 17}, {16, 100},
		{3, 1000}, {100, 7}, {63, 64}, {64, 63}, {1000, 999},
	}
	for _, tc := range cases {
		chunks := Chunks(tc.nworkers, tc.n)
		if tc.n == 0 {
			if chunks != nil {
				t.Fatalf("nw=%d n=0: got chunks %v", tc.nworkers, chunks)
			}
			continue
		}
		wantChunks := tc.nworkers
		if wantChunks > tc.n {
			wantChunks = tc.n
		}
		if wantChunks < 1 {
			wantChunks = 1
		}
		if len(chunks) != wantChunks {
			t.Fatalf("nw=%d n=%d: %d chunks, want %d", tc.nworkers, tc.n, len(chunks), wantChunks)
		}
		next := 0
		minSz, maxSz := tc.n+1, 0
		for i, c := range chunks {
			lo, hi := c[0], c[1]
			if lo != next {
				t.Fatalf("nw=%d n=%d: chunk %d starts at %d, want %d", tc.nworkers, tc.n, i, lo, next)
			}
			sz := hi - lo
			if sz <= 0 {
				t.Fatalf("nw=%d n=%d: chunk %d empty [%d,%d)", tc.nworkers, tc.n, i, lo, hi)
			}
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
			next = hi
		}
		if next != tc.n {
			t.Fatalf("nw=%d n=%d: coverage ends at %d", tc.nworkers, tc.n, next)
		}
		if maxSz-minSz > 1 {
			t.Fatalf("nw=%d n=%d: imbalanced chunks (min %d, max %d)", tc.nworkers, tc.n, minSz, maxSz)
		}
	}
	// The executed partition must match the advertised one.
	for _, tc := range cases {
		if tc.n == 0 {
			continue
		}
		var mu atomic.Int64
		got := make(chan [2]int, tc.n)
		For(tc.nworkers, tc.n, func(lo, hi int) {
			mu.Add(1)
			got <- [2]int{lo, hi}
		})
		close(got)
		want := Chunks(tc.nworkers, tc.n)
		if int(mu.Load()) != len(want) {
			t.Fatalf("nw=%d n=%d: For ran %d chunks, Chunks says %d", tc.nworkers, tc.n, mu.Load(), len(want))
		}
		seen := map[[2]int]bool{}
		for c := range got {
			seen[c] = true
		}
		for _, c := range want {
			if !seen[c] {
				t.Fatalf("nw=%d n=%d: chunk %v not executed", tc.nworkers, tc.n, c)
			}
		}
	}
}

func TestForItemsSum(t *testing.T) {
	var sum int64
	ForItems(4, 100, func(i int) {
		atomic.AddInt64(&sum, int64(i))
	})
	if sum != 4950 {
		t.Fatalf("sum = %d, want 4950", sum)
	}
}

func TestForSequentialFastPath(t *testing.T) {
	calls := 0
	For(1, 10, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("sequential path got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("sequential path invoked %d times", calls)
	}
}

// TestConcurrentFor hammers the pool with many simultaneous For callers
// (run under -race in check.sh): every caller must see its own range
// covered exactly once regardless of how the pool interleaves jobs.
func TestConcurrentFor(t *testing.T) {
	const callers = 16
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 100 + 37*g
			hits := make([]int32, n)
			For(4, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Errorf("caller %d: index %d visited %d times", g, i, h)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNestedDispatch: a body running on the pool calls For again. The
// caller-participates design means this must complete even when every
// pool worker is occupied by the outer job.
func TestNestedDispatch(t *testing.T) {
	const outer, inner = 8, 50
	var sum int64
	For(4, outer, func(olo, ohi int) {
		for o := olo; o < ohi; o++ {
			For(4, inner, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt64(&sum, 1)
				}
			})
		}
	})
	if sum != outer*inner {
		t.Fatalf("nested sum = %d, want %d", sum, outer*inner)
	}
}

// TestWorkerCountChanges: the same pool must serve calls with varying
// nworkers back to back — the chunking adapts per call, the pool does not.
func TestWorkerCountChanges(t *testing.T) {
	for _, nw := range []int{1, 8, 2, 16, 1, 4, 3, 100, 2} {
		n := 256
		hits := make([]int32, n)
		For(nw, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("nw=%d: index %d visited %d times", nw, i, h)
			}
		}
	}
}

// TestPanicPropagation: a panic in a body must surface on the calling
// goroutine with its original value, after the remaining chunks drain
// (no wedged WaitGroup), and the pool must stay usable afterwards.
func TestPanicPropagation(t *testing.T) {
	for round := 0; round < 3; round++ {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("round %d: panic did not propagate", round)
				}
				if s, ok := r.(string); !ok || s != "boom" {
					t.Fatalf("round %d: recovered %v, want \"boom\"", round, r)
				}
			}()
			For(4, 100, func(lo, hi int) {
				if lo == 0 {
					panic("boom")
				}
			})
		}()
		// Pool still serves jobs after the panic drained.
		var sum int64
		For(4, 10, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt64(&sum, int64(i))
			}
		})
		if sum != 45 {
			t.Fatalf("round %d: pool broken after panic (sum=%d)", round, sum)
		}
	}
}

// TestNestedPanicPropagation: a panic thrown inside an inner nested For
// must unwind through both dispatch levels to the outermost caller.
func TestNestedPanicPropagation(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("nested panic did not propagate")
		} else if s, ok := r.(string); !ok || s != "inner" {
			t.Fatalf("recovered %v, want \"inner\"", r)
		}
	}()
	For(4, 8, func(olo, ohi int) {
		For(4, 8, func(lo, hi int) {
			if lo == 0 {
				panic("inner")
			}
		})
	})
}

// TestConcurrentNestedMixed combines all the stress axes: concurrent
// callers, nested dispatch, and per-caller worker counts, under -race.
func TestConcurrentNestedMixed(t *testing.T) {
	if testing.Short() && testing.Verbose() {
		t.Log("running in short mode (still cheap)")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			nw := 1 + g%5
			var sum int64
			For(nw, 20, func(olo, ohi int) {
				for o := olo; o < ohi; o++ {
					For(3, 30, func(lo, hi int) {
						atomic.AddInt64(&sum, int64(hi-lo))
					})
				}
			})
			if sum != 600 {
				errs <- fmt.Errorf("caller %d (nw=%d): sum=%d, want 600", g, nw, sum)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTelemetryProbe: with a probe installed, For records chunk counts,
// item totals and busy/wall times; uninstalling stops recording.
func TestTelemetryProbe(t *testing.T) {
	reg := telemetry.New()
	sc := reg.Root().Child("par")
	SetTelemetry(sc)
	defer SetTelemetry(nil)

	For(4, 100, func(lo, hi int) {})
	For(1, 10, func(lo, hi int) {})

	if got := sc.Counter("calls").Value(); got != 1 {
		t.Fatalf("parallel calls = %d, want 1", got)
	}
	if got := sc.Counter("serial_calls").Value(); got != 1 {
		t.Fatalf("serial calls = %d, want 1", got)
	}
	if got := sc.Counter("chunks").Value(); got != 4 {
		t.Fatalf("chunks = %d, want 4", got)
	}
	if got := sc.Counter("items").Value(); got != 110 {
		t.Fatalf("items = %d, want 110", got)
	}
	if sc.Timer("busy").Calls() != 4 || sc.Timer("wall").Calls() != 1 {
		t.Fatalf("timer calls busy=%d wall=%d", sc.Timer("busy").Calls(), sc.Timer("wall").Calls())
	}

	SetTelemetry(nil)
	For(4, 100, func(lo, hi int) {})
	if got := sc.Counter("calls").Value(); got != 1 {
		t.Fatalf("probe still recording after uninstall: %d", got)
	}
}

// phasedCounts is the schedule the Phased tests run: a mix of wide, narrow,
// single-item and empty phases.
var phasedCounts = []int{5, 1, 0, 16, 2, 2, 0, 1, 9, 3}

// checkedPhased runs phasedCounts on nw workers and checks the contract:
// phases in order, prepare(p) on the calling goroutine with no item of any
// phase in flight, every item of every phase exactly once and only while
// its phase is the published one.
func checkedPhased(t testing.TB, nw int, work func()) {
	var inFlight, phase atomic.Int64
	phase.Store(-1)
	hits := make([][]atomic.Int32, len(phasedCounts))
	for p, n := range phasedCounts {
		hits[p] = make([]atomic.Int32, n)
	}
	Phased(nw, len(phasedCounts), func(p int) int {
		if got := inFlight.Load(); got != 0 {
			t.Errorf("nw=%d: prepare(%d) overlaps %d items", nw, p, got)
		}
		if prev := phase.Swap(int64(p)); prev != int64(p-1) {
			t.Errorf("nw=%d: prepare(%d) after prepare(%d)", nw, p, prev)
		}
		for q := 0; q < p; q++ {
			for i := range hits[q] {
				if h := hits[q][i].Load(); h != 1 {
					t.Errorf("nw=%d: at prepare(%d) item (%d,%d) has run %d times", nw, p, q, i, h)
				}
			}
		}
		return phasedCounts[p]
	}, func(p, i int) {
		inFlight.Add(1)
		if cur := phase.Load(); cur != int64(p) {
			t.Errorf("nw=%d: item (%d,%d) ran during phase %d", nw, p, i, cur)
		}
		if work != nil {
			work()
		}
		hits[p][i].Add(1)
		inFlight.Add(-1)
	})
	if got := phase.Load(); got != int64(len(phasedCounts)-1) {
		t.Errorf("nw=%d: last prepared phase %d", nw, got)
	}
	for p := range hits {
		for i := range hits[p] {
			if h := hits[p][i].Load(); h != 1 {
				t.Errorf("nw=%d: item (%d,%d) ran %d times", nw, p, i, h)
			}
		}
	}
}

// spinFor keeps an item busy long enough for a parked worker to wake and
// join the job (~100 µs on the reference host).
func spinFor(d time.Duration) func() {
	return func() {
		for st := time.Now(); time.Since(st) < d; {
		}
	}
}

func TestPhasedOrderAndCoverage(t *testing.T) {
	for _, nw := range []int{1, 2, 3, 8} {
		checkedPhased(t, nw, nil)
		checkedPhased(t, nw, spinFor(50*time.Microsecond))
	}
}

// TestPhasedNoHelper: with one processor nobody can help at the same time
// as the caller, so the caller must be able to finish every phase alone —
// and must give the processor up when a worker did claim an item and was
// then descheduled (the yield in the in-job wait).
func TestPhasedNoHelper(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for rep := 0; rep < 20; rep++ {
		checkedPhased(t, 4, spinFor(20*time.Microsecond))
	}
}

// TestPhasedNested: items that open jobs of their own, Phased and For, on
// a pool whose workers may all be inside the outer job.
func TestPhasedNested(t *testing.T) {
	var sum atomic.Int64
	Phased(4, 3, func(int) int { return 6 }, func(p, i int) {
		checkedPhased(t, 3, nil)
		For(4, 40, func(lo, hi int) { sum.Add(int64(hi - lo)) })
	})
	if got := sum.Load(); got != 3*6*40 {
		t.Fatalf("nested For covered %d items, want %d", got, 3*6*40)
	}
}

// TestPhasedConcurrent: several goroutines with a job each (run under
// -race in check.sh), more of them than there are pool workers.
func TestPhasedConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			checkedPhased(t, 1+g%4, spinFor(10*time.Microsecond))
		}(g)
	}
	wg.Wait()
}

// TestPhasedPanic: a panicking item is re-raised on the caller with its
// value once its phase has drained; later phases do not start; the
// helpers are released (the pool serves the next job, and the idle test
// below would see one left spinning). A panic in prepare releases them too.
func TestPhasedPanic(t *testing.T) {
	for round := 0; round < 3; round++ {
		var ran [4]atomic.Int64
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("round %d: recovered %v, want \"boom\"", round, r)
				}
			}()
			Phased(4, 4, func(int) int { return 8 }, func(p, i int) {
				spinFor(30 * time.Microsecond)()
				ran[p].Add(1)
				if p == 1 && i == 3 {
					panic("boom")
				}
			})
		}()
		if a, b, c := ran[0].Load(), ran[1].Load(), ran[2].Load()+ran[3].Load(); a != 8 || b != 8 || c != 0 {
			t.Fatalf("round %d: phases ran %d, %d and %d items, want 8, 8, 0", round, a, b, c)
		}
		func() {
			defer func() {
				if r := recover(); r != "prepare" {
					t.Fatalf("round %d: recovered %v, want \"prepare\"", round, r)
				}
			}()
			Phased(4, 3, func(p int) int {
				if p == 1 {
					panic("prepare")
				}
				return 4
			}, func(p, i int) { spinFor(30 * time.Microsecond)() })
		}()
		checkedPhased(t, 4, nil)
	}
	assertIdle(t)
}

// userCPU is the process's user CPU time so far.
func userCPU(t testing.TB) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano())
}

// assertIdle pins "no spinning outside a job": once the jobs have
// returned, 50 ms of sleep must cost next to no user CPU. A worker left
// waiting on a finished job's counters would burn all 50.
func assertIdle(t testing.TB) {
	time.Sleep(5 * time.Millisecond) // let the helpers see the job end and park
	before := userCPU(t)
	time.Sleep(50 * time.Millisecond)
	if d := userCPU(t) - before; d > 10*time.Millisecond {
		t.Fatalf("%v of user CPU over a 50 ms sleep after the jobs returned: a worker is spinning outside a job", d)
	}
}

func TestIdleAfterJobs(t *testing.T) {
	for rep := 0; rep < 50; rep++ {
		checkedPhased(t, 4, spinFor(20*time.Microsecond))
		For(4, 64, func(lo, hi int) { spinFor(20 * time.Microsecond)() })
	}
	assertIdle(t)
}

// TestRunParts: Run is Phased over the concatenated parts — phases
// renumbered per part, Done once per part on the caller before the next
// part's first Prepare, empty parts skipped.
func TestRunParts(t *testing.T) {
	for _, nw := range []int{1, 2, 4} {
		var log []string
		var items atomic.Int64
		part := func(name string, counts ...int) Part {
			return Part{
				Phases: len(counts),
				Prepare: func(ph int) int {
					log = append(log, fmt.Sprintf("%s.%d", name, ph))
					return counts[ph]
				},
				Item: func(ph, i int) {
					if i >= counts[ph] {
						t.Errorf("part %s phase %d: item %d of %d", name, ph, i, counts[ph])
					}
					items.Add(1)
				},
				Done: func() { log = append(log, name+".done") },
			}
		}
		ranges := make([]atomic.Int32, 10)
		Run(nw, part("a", 3, 2), part("b"), Ranges(4, len(ranges), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ranges[i].Add(1)
			}
		}), part("c", 0, 5))
		want := "a.0 a.1 a.done b.done c.0 c.1 c.done"
		if got := strings.Join(log, " "); got != want {
			t.Errorf("nw=%d: order %q, want %q", nw, got, want)
		}
		if got := items.Load(); got != 10 {
			t.Errorf("nw=%d: %d part items, want 10", nw, got)
		}
		for i := range ranges {
			if h := ranges[i].Load(); h != 1 {
				t.Errorf("nw=%d: range index %d covered %d times", nw, i, h)
			}
		}
	}
}

// TestCounts: the always-on totals count the items of parallel regions
// and, among them, the ones pool workers ran; serial regions are in
// neither.
func TestCounts(t *testing.T) {
	i0, p0 := Counts()
	For(1, 100, func(lo, hi int) {})
	Phased(1, 2, func(int) int { return 3 }, func(p, i int) {})
	if i1, p1 := Counts(); i1 != i0 || p1 != p0 {
		t.Fatalf("serial regions moved the totals by %d, %d", i1-i0, p1-p0)
	}
	For(4, 100, func(lo, hi int) {})
	Phased(2, 2, func(int) int { return 3 }, func(p, i int) {})
	i1, p1 := Counts() // a helper adds its share when it leaves: maybe not yet
	if i1-i0 != 4+6 {
		t.Fatalf("items grew by %d, want 10", i1-i0)
	}
	if p1-p0 < 0 || p1-p0 > i1-i0 {
		t.Fatalf("pooled grew by %d of %d items", p1-p0, i1-i0)
	}
}
