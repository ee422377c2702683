package comm

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"ptatin3d/internal/mesh"
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

// testPayload builds a distinguishable packet for from→to.
func testPayload(from, to, round int) *haloPacket {
	return &haloPacket{
		Node: []int32{int32(from), int32(to), int32(round)},
		Val:  []float64{float64(from) + 0.25, float64(to) - 0.5, float64(round)},
	}
}

// exchange runs one exchange of r with nbrs, sending each the packet
// testPayload addresses to it in round.
func exchange(r *Rank, nbrs []int, round int, sc *telemetry.Scope) ([]interface{}, error) {
	payload := make([]interface{}, len(nbrs))
	for i, n := range nbrs {
		payload[i] = testPayload(r.ID, n, round)
	}
	return r.StartExchange(nbrs, payload, sc).Wait()
}

// TestExchangeReliableBasic: every payload of every round arrives once,
// from the neighbour that sent it, and each exchange is counted.
func TestExchangeReliableBasic(t *testing.T) {
	const n, rounds = 4, 3
	w := NewWorld(n)
	reg := telemetry.New()
	w.Run(func(r *Rank) {
		nbrs := fullGraph(n, r.ID)
		sc := reg.Root().Child("comm").Child(fmt.Sprintf("rank%d", r.ID))
		for round := 0; round < rounds; round++ {
			got, err := exchange(r, nbrs, round, sc)
			if err != nil {
				t.Errorf("rank %d round %d: %v", r.ID, round, err)
				return
			}
			for i, nb := range nbrs {
				want := testPayload(nb, r.ID, round)
				if pk, ok := got[i].(*haloPacket); !ok || !slices.Equal(pk.Node, want.Node) || !slices.Equal(pk.Val, want.Val) {
					t.Errorf("rank %d round %d: payload from %d is %+v, want %+v", r.ID, round, nb, got[i], want)
				}
			}
		}
	})
	for rid := 0; rid < n; rid++ {
		if c := reg.Root().Child("comm").Child(fmt.Sprintf("rank%d", rid)).Counter("exchanges").Value(); c != rounds {
			t.Errorf("rank %d: %d exchanges counted, want %d", rid, c, rounds)
		}
	}
}

// TestExchangeReliableStallRecovery: a stalled rank is computing, not
// silent, so its neighbours wait it out however long the stall. The world
// is never quiet while it lasts, and every exchange completes.
func TestExchangeReliableStallRecovery(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	w.Run(func(r *Rank) {
		if r.ID == 1 {
			time.Sleep(60 * time.Millisecond)
		}
		for round := 0; round < 2; round++ {
			got, err := exchange(r, fullGraph(n, r.ID), round, nil)
			if err != nil {
				t.Errorf("rank %d round %d: %v", r.ID, round, err)
				return
			}
			for _, v := range got {
				if pk := v.(*haloPacket); pk.Node[1] != int32(r.ID) || pk.Node[2] != int32(round) {
					t.Errorf("rank %d round %d: packet %+v", r.ID, round, pk)
				}
			}
		}
	})
}

// TestExchangeDeadlockNamesSilentPeer: ranks 0 and 1 list rank 2 as a
// neighbour, but rank 2 lists no one. Once 0 and 1 have each other's
// payload the world goes quiet, and each must fail with an
// *ExchangeError naming rank 2, and only rank 2, instead of hanging.
func TestExchangeDeadlockNamesSilentPeer(t *testing.T) {
	w := NewWorld(3)
	errs := make([]error, 3)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(func(r *Rank) {
			nbrs := []int{1 - r.ID, 2}
			if r.ID == 2 {
				nbrs = nil
			}
			_, errs[r.ID] = exchange(r, nbrs, 0, nil)
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("an exchange with a silent neighbour deadlocked instead of failing")
	}
	for rid, err := range errs[:2] {
		var xe *ExchangeError
		if !errors.As(err, &xe) {
			t.Fatalf("rank %d: got %v, want *ExchangeError", rid, err)
		}
		if xe.Rank != rid || !slices.Equal(xe.Missing, []int{2}) {
			t.Errorf("rank %d: error %+v, want rank %d missing [2]", rid, xe, rid)
		}
	}
	if errs[2] != nil {
		t.Errorf("rank 2, with no neighbours: %v", errs[2])
	}
}

// TestCollectiveOrderMismatchIsAnError: on a 2×1×1 world rank 0 runs two
// owner broadcasts while rank 1 runs the coarse gather to rank 0. Both
// lists name the other, so every exchange completes; but rank 1's wait for the coarse solution takes rank 0's second halo
// packet. It returns a *PayloadError naming the rank and the source, not a
// panic, and rank 0, which took packets of the kind it expected, none.
func TestCollectiveOrderMismatchIsAnError(t *testing.T) {
	da := mesh.New(4, 2, 2, 0, 1, 0, 1, 0, 1)
	d, err := NewDecomp(da, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewWorld(2).Run(func(r *Rank) {
			defer func() {
				if p := recover(); p != nil {
					errs[r.ID] = fmt.Errorf("panic: %v", p)
				}
			}()
			dist := NewDist(r, NewLayout(d, r.ID), nil)
			y := make([]float64, 3*da.NNodes())
			if r.ID == 0 {
				if errs[0] = dist.Broadcast(y); errs[0] == nil {
					errs[0] = dist.Broadcast(y)
				}
				return
			}
			errs[1] = dist.GatherSolveBroadcast(y, make([]float64, len(y)), func() {}, nil)
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a collective-order mismatch hung")
	}
	if errs[0] != nil {
		t.Errorf("rank 0: %v", errs[0])
	}
	var pe *PayloadError
	if !errors.As(errs[1], &pe) {
		t.Fatalf("rank 1: got %v, want *PayloadError", errs[1])
	}
	if pe.Rank != 1 || pe.Source != 0 || pe.Want != "*comm.vecPacket" || pe.Got != "*comm.haloPacket" {
		t.Errorf("rank 1: %+v, want rank 1 taking a *comm.haloPacket from 0 where a *comm.vecPacket was due", pe)
	}
}

// TestAllReduceOrderMismatchIsAnError: on a 2×1×1 world rank 0 enters an
// allreduce while rank 1 runs an owner broadcast. Rank 0's tree hop takes
// rank 1's halo packet: a *PayloadError naming rank 0, source 1 and the
// two types, where an unchecked receive panicked. Rank 1's broadcast
// then waits for a packet rank 0 never sends, and the world's quiet ends
// it with an *ExchangeError missing rank 0. Neither rank panics or hangs.
func TestAllReduceOrderMismatchIsAnError(t *testing.T) {
	da := mesh.New(4, 2, 2, 0, 1, 0, 1, 0, 1)
	d, err := NewDecomp(da, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewWorld(2).Run(func(r *Rank) {
			defer func() {
				if p := recover(); p != nil {
					errs[r.ID] = fmt.Errorf("panic: %v", p)
				}
			}()
			dist := NewDist(r, NewLayout(d, r.ID), nil)
			if r.ID == 0 {
				_, errs[0] = dist.AllReduceSum(1)
				return
			}
			errs[1] = dist.Broadcast(make([]float64, 3*da.NNodes()))
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("an allreduce facing a broadcast hung")
	}
	var pe *PayloadError
	if !errors.As(errs[0], &pe) {
		t.Errorf("rank 0: got %v, want *PayloadError", errs[0])
	} else if pe.Rank != 0 || pe.Source != 1 || pe.Want != "*comm.reduceMsg" || pe.Got != "*comm.haloPacket" {
		t.Errorf("rank 0: %+v, want rank 0 taking a *comm.haloPacket from 1 where a *comm.reduceMsg was due", pe)
	}
	var xe *ExchangeError
	if !errors.As(errs[1], &xe) || !slices.Equal(xe.Missing, []int{0}) {
		t.Errorf("rank 1: got %v, want an *ExchangeError missing [0]", errs[1])
	}
}

// TestExchangeReliablePreservesCollectivePayloads pins the interleaving
// that once deadlocked the rank-distributed solve at larger grids: rank 1
// finishes its exchange with rank 0 quickly and races ahead into a
// collective, sending rank 0 an AllReduce partial while rank 0 still
// waits on a slower neighbour (rank 2). The wait must queue the partial
// for the collective's receive, behind nothing and ahead of nothing else
// rank 1 sends.
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
			if _, err := exchange(r, []int{1, 2}, 0, nil); err != nil {
				fail(fmt.Errorf("rank 0 exchange: %w", err))
				return
			}
			if v, _ := r.recv(t, 1).(float64); v != 3.25 {
				fail(fmt.Errorf("rank 0: collective payload = %v, want 3.25", v))
			}
		case 1:
			if _, err := exchange(r, []int{0}, 0, nil); err != nil {
				fail(fmt.Errorf("rank 1 exchange: %w", err))
				return
			}
			// Race ahead into the "collective" while rank 0 still waits
			// for rank 2's data.
			r.Send(0, 3.25)
		case 2:
			time.Sleep(40 * time.Millisecond)
			if _, err := exchange(r, []int{0}, 0, nil); err != nil {
				fail(fmt.Errorf("rank 2 exchange: %w", err))
			}
		}
	})
	for _, err := range failures {
		t.Error(err)
	}
}
