package perfmodel

import "math"

// Fabric is a two-parameter α–β interconnect cost model (Hockney/LogP
// style): one point-to-point message of b bytes costs α + b/BW. It prices
// the message and allreduce counts a distributed solve reports
// (stokes.RankStats) after the solve, so the modeled communication time
// grows with rank count the way the paper's Tables II/III machine time
// does. It is arithmetic on counts, not a time the simulated fabric
// measured: nothing of the fabric consults it.
type Fabric struct {
	// LatencyNs is the per-message latency α in nanoseconds.
	LatencyNs float64
	// BandwidthBps is the per-link bandwidth in bytes per second.
	BandwidthBps float64
}

// DefaultFabric returns parameters in the range of the Cray Aries
// interconnect of the paper's Edison machine (§IV): ~1.3 µs MPI
// latency, ~8 GB/s per-link bandwidth.
func DefaultFabric() *Fabric {
	return &Fabric{LatencyNs: 1300, BandwidthBps: 8e9}
}

// MsgNs returns the modeled cost of one point-to-point message.
func (f *Fabric) MsgNs(bytes int) int64 { return f.TrafficNs(1, int64(bytes)) }

// TrafficNs returns the modeled cost of msgs point-to-point messages
// carrying bytes in all: α·msgs + bytes/BW. It is the sum of the
// messages' MsgNs to within the 1 ns each one rounds off.
func (f *Fabric) TrafficNs(msgs, bytes int64) int64 {
	ns := f.LatencyNs * float64(msgs)
	if f.BandwidthBps > 0 {
		ns += float64(bytes) / f.BandwidthBps * 1e9
	}
	return int64(ns)
}

// AllReduceNs returns the modeled cost of one allreduce of width
// float64 values over the given rank count: a recursive-doubling
// (reduce-scatter + all-gather style) allreduce makes 2·⌈log₂P⌉
// latency-bound hops of the full payload — the small-message regime of
// every Krylov dot product, where latency dominates and the cost is
// independent of the local problem size. A Krylov iteration pays it
// once per inner product: GCR's modified Gram–Schmidt makes j+3 of them
// at basis length j.
func (f *Fabric) AllReduceNs(ranks, width int) int64 {
	if ranks <= 1 {
		return 0
	}
	hops := 2 * int(math.Ceil(math.Log2(float64(ranks))))
	return int64(hops) * f.MsgNs(8*width)
}
