package perfmodel

import "testing"

// TestFabricMsgNs: the α–β decomposition — a zero-byte message costs
// exactly the latency, and the bandwidth term adds bytes/BW.
func TestFabricMsgNs(t *testing.T) {
	f := &Fabric{LatencyNs: 1000, BandwidthBps: 1e9} // 1 µs, 1 GB/s
	if got := f.MsgNs(0); got != 1000 {
		t.Fatalf("MsgNs(0) = %d, want latency 1000", got)
	}
	// 1e6 bytes at 1 GB/s = 1 ms = 1e6 ns on top of latency.
	if got := f.MsgNs(1_000_000); got != 1_001_000 {
		t.Fatalf("MsgNs(1e6) = %d, want 1001000", got)
	}
	// Zero bandwidth disables the β term instead of dividing by zero.
	f2 := &Fabric{LatencyNs: 500}
	if got := f2.MsgNs(1 << 20); got != 500 {
		t.Fatalf("MsgNs with BW=0 = %d, want 500", got)
	}
}

// TestFabricAllReduceNs: latency-dominated log₂ scaling — the charge
// grows by one 2-hop step per rank doubling and is zero on one rank.
func TestFabricAllReduceNs(t *testing.T) {
	f := DefaultFabric()
	if got := f.AllReduceNs(1, 8); got != 0 {
		t.Fatalf("AllReduceNs(1) = %d, want 0", got)
	}
	per := f.MsgNs(8 * 3)
	for _, c := range []struct {
		ranks int
		hops  int64
	}{{2, 2}, {4, 4}, {8, 6}, {9, 8}, {512, 18}} {
		if got := f.AllReduceNs(c.ranks, 3); got != c.hops*per {
			t.Fatalf("AllReduceNs(%d) = %d, want %d hops x %d", c.ranks, got, c.hops, per)
		}
	}
}
