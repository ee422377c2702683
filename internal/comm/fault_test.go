package comm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ptatin3d/internal/telemetry"
)

// fullGraph returns the all-to-all neighbour lists for n ranks.
func fullGraph(n, self int) []int {
	var nbrs []int
	for r := 0; r < n; r++ {
		if r != self {
			nbrs = append(nbrs, r)
		}
	}
	return nbrs
}

// testPayload builds a distinguishable, checksummed packet for from→to.
func testPayload(from, to, round int) *haloPacket {
	return &haloPacket{
		Node: []int32{int32(from), int32(to), int32(round)},
		Val:  []float64{float64(from) + 0.25, float64(to) - 0.5, float64(round)},
	}
}

func checkReceived(t *testing.T, self, round int, got map[int]interface{}, nbrs []int) {
	t.Helper()
	for _, n := range nbrs {
		pk, ok := got[n].(*haloPacket)
		if !ok {
			t.Errorf("rank %d round %d: payload from %d is %T", self, round, n, got[n])
			continue
		}
		want := testPayload(n, self, round)
		if pk.Checksum64() != want.Checksum64() {
			t.Errorf("rank %d round %d: payload from %d corrupted or wrong: %+v", self, round, n, pk)
		}
	}
}

// runExchanges drives `rounds` collective reliable exchanges on a world of
// n ranks and asserts every payload arrives intact.
func runExchanges(t *testing.T, w *World, rounds int, pol RetryPolicy, reg *telemetry.Registry) {
	t.Helper()
	n := w.Size()
	var mu sync.Mutex
	var failures []error
	w.Run(func(r *Rank) {
		nbrs := fullGraph(n, r.ID)
		sc := reg.Root().Child("comm").Child(fmt.Sprintf("rank%d", r.ID))
		for round := 0; round < rounds; round++ {
			payload := map[int]interface{}{}
			for _, nb := range nbrs {
				payload[nb] = testPayload(r.ID, nb, round)
			}
			got, err := r.ExchangeReliable(nbrs, payload, pol, sc)
			if err != nil {
				mu.Lock()
				failures = append(failures, fmt.Errorf("rank %d round %d: %w", r.ID, round, err))
				mu.Unlock()
				return
			}
			checkReceived(t, r.ID, round, got, nbrs)
		}
	})
	for _, err := range failures {
		t.Error(err)
	}
}

func TestExchangeReliableBasic(t *testing.T) {
	runExchanges(t, NewWorld(4), 3, DefaultRetryPolicy(), telemetry.New())
}

func TestExchangeReliableDropRecovery(t *testing.T) {
	w := NewWorld(4)
	fp := &FaultPlan{Seed: 7, DropProb: 1, MaxDrops: 5}
	w.SetFaultPlan(fp)
	reg := telemetry.New()
	pol := RetryPolicy{Timeout: 10 * time.Millisecond, MaxRetries: 30, Backoff: 1.2}
	runExchanges(t, w, 3, pol, reg)
	if fp.Drops() != 5 {
		t.Errorf("injected %d drops, want the full budget of 5", fp.Drops())
	}
	var retries int64
	for r := 0; r < 4; r++ {
		retries += reg.Root().Child("comm").Child(fmt.Sprintf("rank%d", r)).Counter("retries").Value()
	}
	if retries == 0 {
		t.Error("five dropped envelopes recovered without a single retry")
	}
}

func TestExchangeReliableStallRecovery(t *testing.T) {
	w := NewWorld(4)
	fp := &FaultPlan{Seed: 3, StallRank: 1, StallExchange: 0, StallDuration: 60 * time.Millisecond}
	w.SetFaultPlan(fp)
	pol := RetryPolicy{Timeout: 10 * time.Millisecond, MaxRetries: 30, Backoff: 1.2}
	runExchanges(t, w, 2, pol, telemetry.New())
	if fp.Stalls() != 1 {
		t.Errorf("injected %d stalls, want 1", fp.Stalls())
	}
}

func TestExchangeReliableCorruptionRecovery(t *testing.T) {
	w := NewWorld(4)
	fp := &FaultPlan{Seed: 11, CorruptProb: 1, MaxCorrupts: 3}
	w.SetFaultPlan(fp)
	reg := telemetry.New()
	pol := RetryPolicy{Timeout: 10 * time.Millisecond, MaxRetries: 30, Backoff: 1.2}
	// checkReceived inside runExchanges asserts every delivered payload is
	// pristine, so surviving this test means all 3 corruptions were caught
	// by checksum verification and repaired by retransmission.
	runExchanges(t, w, 3, pol, reg)
	if fp.Corruptions() != 3 {
		t.Errorf("injected %d corruptions, want the full budget of 3", fp.Corruptions())
	}
	var rejected int64
	for r := 0; r < 4; r++ {
		rejected += reg.Root().Child("comm").Child(fmt.Sprintf("rank%d", r)).Counter("corrupt_rejected").Value()
	}
	if rejected == 0 {
		t.Error("corrupted payloads were never rejected at the receiver")
	}
}

// TestExchangeReliableExhaustion drops every envelope with no budget: the
// exchange must fail with a typed *ExchangeError on every rank within the
// bounded retry schedule — never deadlock.
func TestExchangeReliableExhaustion(t *testing.T) {
	w := NewWorld(3)
	w.SetFaultPlan(&FaultPlan{Seed: 1, DropProb: 1})
	pol := RetryPolicy{Timeout: 5 * time.Millisecond, MaxRetries: 3, Backoff: 1}
	errs := make([]error, 3)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(func(r *Rank) {
			nbrs := fullGraph(3, r.ID)
			payload := map[int]interface{}{}
			for _, nb := range nbrs {
				payload[nb] = testPayload(r.ID, nb, 0)
			}
			_, errs[r.ID] = r.ExchangeReliable(nbrs, payload, pol, nil)
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("exchange with total message loss deadlocked instead of failing")
	}
	for rid, err := range errs {
		var xe *ExchangeError
		if !errors.As(err, &xe) {
			t.Fatalf("rank %d: got %v, want *ExchangeError", rid, err)
		}
		if xe.Rank != rid || len(xe.MissingData) == 0 || xe.Attempts != pol.MaxRetries+1 {
			t.Errorf("rank %d: unexpected error detail %+v", rid, xe)
		}
	}
}

// TestFaultPlanDeterminism: two plans with the same seed make identical
// injection decisions for the same per-rank envelope sequence.
func TestFaultPlanDeterminism(t *testing.T) {
	decisions := func() (deliver []bool, sums []uint64, drops, corrupts int64) {
		fp := &FaultPlan{Seed: 99, DropProb: 0.3, CorruptProb: 0.4}
		fp.attach(2)
		for i := 0; i < 200; i++ {
			pk := testPayload(0, 1, i)
			env := envelope{Kind: envData, Seq: int64(i), From: 0, Payload: pk,
				Sum: pk.Checksum64(), HasSum: true}
			out, ok := fp.filter(0, env)
			deliver = append(deliver, ok)
			sums = append(sums, out.Payload.(*haloPacket).Checksum64())
		}
		return deliver, sums, fp.Drops(), fp.Corruptions()
	}
	d1, s1, dr1, co1 := decisions()
	d2, s2, dr2, co2 := decisions()
	if dr1 != dr2 || co1 != co2 {
		t.Fatalf("fault counts differ across identical runs: drops %d/%d corrupts %d/%d", dr1, dr2, co1, co2)
	}
	if dr1 == 0 || co1 == 0 {
		t.Fatalf("injection never fired (drops %d, corrupts %d): seed/probability wiring broken", dr1, co1)
	}
	for i := range d1 {
		if d1[i] != d2[i] || s1[i] != s2[i] {
			t.Fatalf("decision %d differs across identical seeds", i)
		}
	}
}

func TestRecvTimeout(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(r *Rank) {
		if r.ID == 0 {
			if _, ok := r.recv(1, time.Now().Add(5*time.Millisecond)); ok {
				t.Error("recv returned a message from a silent rank")
			}
			r.Barrier()
			v, ok := r.recv(1, time.Now().Add(time.Second))
			if !ok || v.(int) != 42 {
				t.Errorf("recv got (%v, %v), want (42, true)", v, ok)
			}
		} else {
			r.Barrier()
			r.Send(0, 42)
		}
	})
}

// TestExchangeReliablePreservesCollectivePayloads pins the interleaving
// that deadlocked the rank-distributed solve at larger grids: rank 1
// finishes its exchange with rank 0 quickly and races ahead into a
// collective, sending rank 0 a bare (non-envelope) AllReduce partial
// while rank 0 is still in its receive/retry loop waiting on a slower
// neighbour (rank 2). The loop must queue the stray payload for the
// collective's Recv instead of discarding it; before the fix this test
// deadlocks at rank 0's recv.
func TestExchangeReliablePreservesCollectivePayloads(t *testing.T) {
	w := NewWorld(3)
	pol := RetryPolicy{Timeout: 200 * time.Millisecond, MaxRetries: 8, Backoff: 1}
	var mu sync.Mutex
	var failures []error
	fail := func(err error) {
		mu.Lock()
		failures = append(failures, err)
		mu.Unlock()
	}
	w.Run(func(r *Rank) {
		switch r.ID {
		case 0:
			payload := map[int]interface{}{1: testPayload(0, 1, 0), 2: testPayload(0, 2, 0)}
			if _, err := r.ExchangeReliable([]int{1, 2}, payload, pol, nil); err != nil {
				fail(fmt.Errorf("rank 0 exchange: %w", err))
				return
			}
			if v, _ := r.recv(1, time.Time{}); v.(float64) != 3.25 {
				fail(fmt.Errorf("rank 0: collective payload = %v, want 3.25", v))
			}
		case 1:
			if _, err := r.ExchangeReliable([]int{0}, map[int]interface{}{0: testPayload(1, 0, 0)}, pol, nil); err != nil {
				fail(fmt.Errorf("rank 1 exchange: %w", err))
				return
			}
			// Race ahead into the "collective" while rank 0 is still
			// polling for rank 2's data.
			r.Send(0, 3.25)
		case 2:
			time.Sleep(40 * time.Millisecond)
			if _, err := r.ExchangeReliable([]int{0}, map[int]interface{}{0: testPayload(2, 0, 0)}, pol, nil); err != nil {
				fail(fmt.Errorf("rank 2 exchange: %w", err))
			}
		}
	})
	for _, err := range failures {
		t.Error(err)
	}
}
