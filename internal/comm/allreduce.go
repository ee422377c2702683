package comm

import "time"

// Deterministic tree allreduce. The legacy Dist.AllReduceSum gathered
// every rank's partial to rank 0 serially — O(P) messages through one
// mailbox, the exact pattern that cannot survive 512 ranks. The
// binomial tree below has O(log P) depth and preserves bit-identical
// results: instead of reducing partial sums inside the tree (which
// would change the summation order with the tree shape), each subtree
// forwards its members' RAW values — binomial subtrees cover contiguous
// rank ranges, so the root receives every rank's value in ascending
// rank order and sums them left-associated, exactly like the serial
// gather. The result then rides the reverse tree down.

// lowbit returns the lowest set bit of id (id > 0).
func lowbit(id int) int { return id & -id }

// AllReduceSumVec returns the element-wise global sum of x over all
// ranks, bit-identical on every rank and across world sizes with the
// same per-rank values: summation always runs in ascending rank order.
// The batch width must match on all ranks (one collective per call —
// this is the single fused reduction of a pipelined Krylov iteration).
// The returned slice is freshly allocated.
func (d *Dist) AllReduceSumVec(x []float64) []float64 {
	start := time.Now()
	r := d.R
	size := r.W.Size()
	width := len(x)
	defer func() {
		d.Sc.Counter("allreduces").Inc()
		d.Sc.Timer("allreduce").Observe(time.Since(start))
		if f := r.W.fabric; f != nil {
			d.Sc.Counter("fabric_allreduce_ns").Add(f.AllReduceNs(size, width))
		}
	}()
	out := make([]float64, width)
	if size == 1 {
		copy(out, x)
		return out
	}
	id := r.ID
	// Gather: fold in each child subtree's raw blocks (contiguous,
	// ascending), then hand the combined run to the parent.
	blocks := make([]float64, width, 2*width)
	copy(blocks, x)
	var children []int
	for bit := 1; bit < size; bit <<= 1 {
		if id&bit != 0 {
			r.Send(id-bit, blocks)
			break
		}
		src := id + bit
		if src >= size {
			continue
		}
		sub, _ := r.recv(src, time.Time{})
		blocks = append(blocks, sub.([]float64)...)
		children = append(children, src)
	}
	var res []float64
	if id == 0 {
		// blocks now holds every rank's raw vector in ascending rank
		// order; sum left-associated like the serial gather did.
		res = make([]float64, width)
		for b := 0; b*width < len(blocks); b++ {
			row := blocks[b*width:]
			for i := 0; i < width; i++ {
				res[i] += row[i]
			}
		}
	} else {
		down, _ := r.recv(id-lowbit(id), time.Time{})
		res = down.([]float64)
	}
	// Broadcast down. The slice travelling the tree is shared between
	// ranks read-only; every rank returns a private copy so callers may
	// mutate theirs.
	for _, c := range children {
		r.Send(c, res)
	}
	copy(out, res)
	return out
}
