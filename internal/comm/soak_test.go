package comm

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"ptatin3d/internal/telemetry"
)

// Soak test for the reliable exchange protocol at the rank counts of
// the PR 6 scaling sweep: 64 ranks, many rounds of deterministic but
// skewed neighbour graphs, with drop/delay/corrupt fault injection, and
// tree allreduces interleaved between exchanges so late protocol
// envelopes (the PR 5 oob-queue regression surface) land in the middle
// of raw collectives. Run under -race by scripts/check.sh. Passing
// means: no deadlock, every payload delivered pristine, every allreduce
// bit-exact on every rank.

// soakGraph returns rank self's neighbour set in round m over n ranks:
// a symmetric circulant pair (±offset, the offset varying per round) plus
// a per-round hub rank connected to everyone — the hub's 63-neighbour
// fan-in is the skew that stresses one mailbox the way the coarse
// gather does.
func soakGraph(n, self, m int) []int {
	offset := 1 + (m*7+3)%(n-1)
	hub := (m * 13) % n
	set := map[int]bool{
		(self + offset) % n:     true,
		(self - offset + n) % n: true,
	}
	if self != hub {
		set[hub] = true
	} else {
		for r := 0; r < n; r++ {
			if r != self {
				set[r] = true
			}
		}
	}
	delete(set, self)
	nbrs := make([]int, 0, len(set))
	for r := 0; r < n; r++ {
		if set[r] {
			nbrs = append(nbrs, r)
		}
	}
	return nbrs
}

func TestSoakReliableExchange64Ranks(t *testing.T) {
	const n = 64
	rounds := 24
	if testing.Short() {
		rounds = 6
	}
	w := NewWorld(n)
	fp := &FaultPlan{
		Seed:        42,
		DropProb:    0.02,
		MaxDrops:    150,
		DelayProb:   0.02,
		MaxDelay:    2 * time.Millisecond,
		MaxDelays:   150,
		CorruptProb: 0.01,
		MaxCorrupts: 40,
	}
	w.SetFaultPlan(fp)
	reg := telemetry.New()

	var mu sync.Mutex
	var failures []error
	w.Run(func(r *Rank) {
		sc := reg.Root().Child("soak").Child(fmt.Sprintf("rank%d", r.ID))
		d := &Dist{R: r, Sc: sc}
		for m := 0; m < rounds; m++ {
			nbrs := soakGraph(n, r.ID, m)
			payload := map[int]interface{}{}
			for _, nb := range nbrs {
				payload[nb] = testPayload(r.ID, nb, m)
			}
			got, err := r.ExchangeReliable(nbrs, payload, sc)
			if err != nil {
				mu.Lock()
				failures = append(failures, fmt.Errorf("rank %d round %d: %w", r.ID, m, err))
				mu.Unlock()
				return
			}
			checkReceived(t, r.ID, m, got, nbrs)
			// Interleave a raw collective every few rounds: delayed
			// envelopes from the exchange above may arrive mid-allreduce
			// and must be stashed, not consumed as reduction blocks.
			if m%3 == 2 {
				x := []float64{arValue(r.ID, 0, m), arValue(r.ID, 1, m)}
				got := d.AllReduceSumVec(x)
				want := make([]float64, 2)
				for rank := 0; rank < n; rank++ {
					want[0] += arValue(rank, 0, m)
					want[1] += arValue(rank, 1, m)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						mu.Lock()
						failures = append(failures, fmt.Errorf(
							"rank %d round %d: allreduce slot %d: got %x want %x",
							r.ID, m, i, math.Float64bits(got[i]), math.Float64bits(want[i])))
						mu.Unlock()
						return
					}
				}
			}
		}
	})
	for _, err := range failures {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	if fp.Drops() == 0 && fp.Delays() == 0 && fp.Corruptions() == 0 {
		t.Fatal("soak ran without a single injected fault — fault plan not exercised")
	}
	var retries int64
	for rk := 0; rk < n; rk++ {
		retries += reg.Root().Child("soak").Child(fmt.Sprintf("rank%d", rk)).Counter("retries").Value()
	}
	if fp.Drops() > 0 && retries == 0 {
		t.Error("drops were injected but no retry was ever recorded")
	}
	t.Logf("soak: %d rounds, drops=%d delays=%d corruptions=%d retries=%d",
		rounds, fp.Drops(), fp.Delays(), fp.Corruptions(), retries)
}

// TestFaultFreeExchangeNeverRetries runs the soak's traffic — 64 ranks,
// round-varying circulant+hub graphs, an allreduce every third round — with
// no fault plan. Nothing is lost, so nothing may be sent twice: with
// liveness taken from the fabric the world is never quiet while a message
// is in flight or a rank computes, so no scheduling, however unfair, makes
// an exchange retransmit (P² polled channels with a clock made 187 to 326
// of them here).
func TestFaultFreeExchangeNeverRetries(t *testing.T) {
	const n, rounds = 64, 24
	w := NewWorld(n)
	reg := telemetry.New()
	scope := func(rank int) *telemetry.Scope {
		return reg.Root().Child("quiet").Child(fmt.Sprintf("rank%d", rank))
	}
	w.Run(func(r *Rank) {
		sc := scope(r.ID)
		d := &Dist{R: r, Sc: sc}
		for m := 0; m < rounds; m++ {
			nbrs := soakGraph(n, r.ID, m)
			payload := map[int]interface{}{}
			for _, nb := range nbrs {
				payload[nb] = testPayload(r.ID, nb, m)
			}
			got, err := r.ExchangeReliable(nbrs, payload, sc)
			if err != nil {
				t.Errorf("rank %d round %d: %v", r.ID, m, err)
				return
			}
			checkReceived(t, r.ID, m, got, nbrs)
			if m%3 == 2 {
				d.AllReduceSum(arValue(r.ID, 0, m))
			}
		}
	})
	for _, name := range []string{"retries", "duplicates", "resends_served", "corrupt_rejected"} {
		var total int64
		for rank := 0; rank < n; rank++ {
			total += scope(rank).Counter(name).Value()
		}
		if total != 0 {
			t.Errorf("%s = %d over %d ranks on a fault-free fabric, want 0", name, total, n)
		}
	}
}
