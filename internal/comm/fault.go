package comm

import (
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"ptatin3d/internal/telemetry"
)

// FaultPlan is a deterministic, seedable fault injector for the reliable
// exchange paths of the simulated rank fabric. It models the failure
// modes a long production run on thousands of cores actually sees:
// dropped and delayed halo-exchange messages, corrupted in-flight
// payloads, and a rank that stalls mid-collective. Injection happens on
// the send side of ExchangeReliable envelopes only — the bare Send of the
// tree allreduce stays fault-free, so collectives outside the
// hardened exchange paths keep their semantics.
//
// Determinism: each sending rank draws from its own rand.Rand seeded
// from Seed and the rank id, and a rank's sends are sequential on its
// own goroutine, so the per-rank injection decision sequence is
// reproducible regardless of goroutine interleaving. Budgets (MaxDrops
// etc.) are shared atomically across ranks; with probability 1 and a
// finite budget the total injected fault count is exact.
type FaultPlan struct {
	Seed int64

	// DropProb is the probability a data/ack/resend envelope is silently
	// discarded on send. MaxDrops bounds the total number of drops
	// across all ranks (<= 0 means unlimited). Bounded drops guarantee
	// that retry eventually succeeds.
	DropProb float64
	MaxDrops int

	// DelayProb delays an envelope on the sender by a uniform duration
	// in (0, MaxDelay]; MaxDelays bounds the count (<= 0 unlimited).
	DelayProb float64
	MaxDelay  time.Duration
	MaxDelays int

	// CorruptProb replaces a data envelope's payload with a corrupted
	// copy while keeping the original checksum, so receivers must detect
	// the mismatch and request retransmission. Only payloads
	// implementing both Checksummer and Corrupter are corrupted.
	// MaxCorrupts bounds the count (<= 0 unlimited).
	CorruptProb float64
	MaxCorrupts int

	// StallRank, when StallDuration > 0, sleeps that rank once, at entry
	// of its StallExchange-th reliable exchange (0-based), simulating an
	// unresponsive rank that neighbours must ride out via retries.
	StallRank     int
	StallExchange int64
	StallDuration time.Duration

	// Telemetry, when non-nil, accumulates injected_drops /
	// injected_delays / injected_corruptions / injected_stalls counters.
	Telemetry *telemetry.Scope

	rngs      []*rand.Rand
	nDrops    atomic.Int64
	nDelays   atomic.Int64
	nCorrupts atomic.Int64
	nStalls   atomic.Int64
	stalled   atomic.Bool
}

// attach prepares the per-rank RNG streams for a world of n ranks.
func (fp *FaultPlan) attach(n int) {
	fp.rngs = make([]*rand.Rand, n)
	for r := 0; r < n; r++ {
		fp.rngs[r] = rand.New(rand.NewSource(fp.Seed*2654435761 + int64(r)))
	}
}

// Drops returns the number of injected message drops so far.
func (fp *FaultPlan) Drops() int64 { return fp.nDrops.Load() }

// Delays returns the number of injected message delays so far.
func (fp *FaultPlan) Delays() int64 { return fp.nDelays.Load() }

// Corruptions returns the number of injected payload corruptions so far.
func (fp *FaultPlan) Corruptions() int64 { return fp.nCorrupts.Load() }

// Stalls returns the number of injected rank stalls so far (0 or 1).
func (fp *FaultPlan) Stalls() int64 { return fp.nStalls.Load() }

// takeBudget consumes one unit of a shared fault budget; max <= 0 means
// unlimited.
func takeBudget(n *atomic.Int64, max int) bool {
	if max <= 0 {
		n.Add(1)
		return true
	}
	if n.Add(1) <= int64(max) {
		return true
	}
	n.Add(-1)
	return false
}

// filter applies the plan to an outgoing envelope from rank `from`,
// returning the (possibly corrupted) envelope and whether to deliver it.
func (fp *FaultPlan) filter(from int, env envelope) (envelope, bool) {
	rng := fp.rngs[from]
	if fp.DropProb > 0 && rng.Float64() < fp.DropProb && takeBudget(&fp.nDrops, fp.MaxDrops) {
		fp.Telemetry.Counter("injected_drops").Inc()
		return env, false
	}
	if fp.CorruptProb > 0 && env.Kind == envData && env.HasSum {
		if c, ok := env.Payload.(Corrupter); ok && rng.Float64() < fp.CorruptProb && takeBudget(&fp.nCorrupts, fp.MaxCorrupts) {
			env.Payload = c.CorruptCopy(rng)
			fp.Telemetry.Counter("injected_corruptions").Inc()
		}
	}
	if fp.DelayProb > 0 && fp.MaxDelay > 0 && rng.Float64() < fp.DelayProb && takeBudget(&fp.nDelays, fp.MaxDelays) {
		fp.Telemetry.Counter("injected_delays").Inc()
		time.Sleep(time.Duration(1 + rng.Int63n(int64(fp.MaxDelay))))
	}
	return env, true
}

// maybeStall sleeps once if this rank/exchange matches the stall spec.
func (fp *FaultPlan) maybeStall(rank int, seq int64) {
	if fp.StallDuration <= 0 || rank != fp.StallRank || seq != fp.StallExchange {
		return
	}
	if !fp.stalled.CompareAndSwap(false, true) {
		return
	}
	fp.nStalls.Add(1)
	fp.Telemetry.Counter("injected_stalls").Inc()
	time.Sleep(fp.StallDuration)
}

// Checksummer is implemented by exchange payloads that support integrity
// verification; the reliable exchange stamps the sum on data envelopes
// and receivers reject (and re-request) payloads whose sum mismatches.
type Checksummer interface {
	Checksum64() uint64
}

// Corrupter is implemented by payloads that support fault injection: it
// returns a corrupted deep copy, leaving the original intact so a
// retransmission carries pristine data.
type Corrupter interface {
	CorruptCopy(rng *rand.Rand) interface{}
}

// HashU64 folds v into the running FNV-1a style hash h. Seed with
// HashSeed. Exported so payload types in other packages can implement
// Checksummer consistently.
func HashU64(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}

// HashSeed is the initial value for HashU64 chains.
const HashSeed uint64 = 14695981039346656037

// HashFloats folds a float64 slice (bit patterns) into h.
func HashFloats(h uint64, xs []float64) uint64 {
	for _, x := range xs {
		h = HashU64(h, math.Float64bits(x))
	}
	return h
}

// HashInt32s folds an int32 slice into h.
func HashInt32s(h uint64, xs []int32) uint64 {
	for _, x := range xs {
		h = HashU64(h, uint64(uint32(x)))
	}
	return h
}
