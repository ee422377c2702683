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
func runExchanges(t *testing.T, w *World, rounds int, reg *telemetry.Registry) {
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
			got, err := r.ExchangeReliable(nbrs, payload, sc)
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
	runExchanges(t, NewWorld(4), 3, telemetry.New())
}

// retries sums the "retries" counter over the rank scopes runExchanges
// records into.
func retries(reg *telemetry.Registry, n int) int64 {
	var total int64
	for r := 0; r < n; r++ {
		total += reg.Root().Child("comm").Child(fmt.Sprintf("rank%d", r)).Counter("retries").Value()
	}
	return total
}

func TestExchangeReliableDropRecovery(t *testing.T) {
	w := NewWorld(4)
	fp := &FaultPlan{Seed: 7, DropProb: 1, MaxDrops: 5}
	w.SetFaultPlan(fp)
	reg := telemetry.New()
	runExchanges(t, w, 3, reg)
	if fp.Drops() != 5 {
		t.Errorf("injected %d drops, want the full budget of 5", fp.Drops())
	}
	if retries(reg, 4) == 0 {
		t.Error("five dropped envelopes recovered without a single retry")
	}
}

// TestExchangeReliableStallRecovery: a stalled rank is computing, not
// lost, so its neighbours wait it out — however long the stall, the world
// is never quiet while it lasts, and nothing is sent twice.
func TestExchangeReliableStallRecovery(t *testing.T) {
	w := NewWorld(4)
	fp := &FaultPlan{Seed: 3, StallRank: 1, StallExchange: 0, StallDuration: 60 * time.Millisecond}
	w.SetFaultPlan(fp)
	reg := telemetry.New()
	runExchanges(t, w, 2, reg)
	if fp.Stalls() != 1 {
		t.Errorf("injected %d stalls, want 1", fp.Stalls())
	}
	if n := retries(reg, 4); n != 0 {
		t.Errorf("%d retries while a peer was stalled, want 0: a stall is not a loss", n)
	}
}

func TestExchangeReliableCorruptionRecovery(t *testing.T) {
	w := NewWorld(4)
	fp := &FaultPlan{Seed: 11, CorruptProb: 1, MaxCorrupts: 3}
	w.SetFaultPlan(fp)
	reg := telemetry.New()
	// checkReceived inside runExchanges asserts every delivered payload is
	// pristine, so surviving this test means all 3 corruptions were caught
	// by checksum verification and repaired by retransmission.
	runExchanges(t, w, 3, reg)
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
// exchange must fail with a typed *ExchangeError on every rank after its
// retry budget of quiet rounds — never deadlock.
func TestExchangeReliableExhaustion(t *testing.T) {
	w := NewWorld(3)
	w.SetFaultPlan(&FaultPlan{Seed: 1, DropProb: 1})
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
			_, errs[r.ID] = r.ExchangeReliable(nbrs, payload, nil)
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
		if xe.Rank != rid || len(xe.MissingData) == 0 || xe.Attempts != Retries+1 {
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

// TestRecvWaitsThroughQuiet: a collective's receive is not a reliable
// exchange and has nothing to retransmit, so it waits through the quiet
// rounds of an exchange that lost a message until its payload comes. Rank 0
// sits in recv while ranks 1 and 2 exchange under a plan that drops the
// first two envelopes; the world goes quiet, 1 and 2 retransmit, and only
// then does rank 1 send.
func TestRecvWaitsThroughQuiet(t *testing.T) {
	w := NewWorld(3)
	fp := &FaultPlan{Seed: 5, DropProb: 1, MaxDrops: 2}
	w.SetFaultPlan(fp)
	reg := telemetry.New()
	w.Run(func(r *Rank) {
		sc := reg.Root().Child("comm").Child(fmt.Sprintf("rank%d", r.ID))
		switch r.ID {
		case 0:
			if v := r.recv(1); v.(int) != 42 {
				t.Errorf("recv got %v, want 42", v)
			}
		default:
			peer := 3 - r.ID
			if _, err := r.ExchangeReliable([]int{peer}, map[int]interface{}{peer: testPayload(r.ID, peer, 0)}, sc); err != nil {
				t.Errorf("rank %d: %v", r.ID, err)
			}
			if r.ID == 1 {
				r.Send(0, 42)
			}
		}
	})
	if fp.Drops() != 2 || retries(reg, 3) == 0 {
		t.Fatalf("drops %d, retries %d: the exchange never went quiet, so recv was not tested through it", fp.Drops(), retries(reg, 3))
	}
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
			if _, err := r.ExchangeReliable([]int{1, 2}, payload, nil); err != nil {
				fail(fmt.Errorf("rank 0 exchange: %w", err))
				return
			}
			if v := r.recv(1); v.(float64) != 3.25 {
				fail(fmt.Errorf("rank 0: collective payload = %v, want 3.25", v))
			}
		case 1:
			if _, err := r.ExchangeReliable([]int{0}, map[int]interface{}{0: testPayload(1, 0, 0)}, nil); err != nil {
				fail(fmt.Errorf("rank 1 exchange: %w", err))
				return
			}
			// Race ahead into the "collective" while rank 0 is still
			// polling for rank 2's data.
			r.Send(0, 3.25)
		case 2:
			time.Sleep(40 * time.Millisecond)
			if _, err := r.ExchangeReliable([]int{0}, map[int]interface{}{0: testPayload(2, 0, 0)}, nil); err != nil {
				fail(fmt.Errorf("rank 2 exchange: %w", err))
			}
		}
	})
	for _, err := range failures {
		t.Error(err)
	}
}
