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

// reduceBufs are a Dist's persistent allreduce buffers: up carries this
// rank's subtree's raw blocks to its parent, down the root's sums to its
// children (forwarded, not copied, by the ranks between), and out is the
// rank's private copy of the sums. Reuse is safe without a ring: a rank
// starts its next allreduce only after the sums of this one reached it, so
// its parent has read up by then; and the root rewrites down only after
// every rank's next blocks reached it, each sent after that rank had
// copied the previous sums out.
type reduceBufs struct {
	up, down reduceMsg
	out      []float64
}

// reduceMsg is the payload of one tree hop, sent by pointer.
type reduceMsg struct{ v []float64 }

// AllReduceSumVec returns the element-wise global sum of x over all
// ranks, bit-identical on every rank and across world sizes with the
// same per-rank values: summation always runs in ascending rank order.
// The batch width must match on all ranks (one collective per call).
// The returned slice is the handle's own, private to the rank and valid
// until its next allreduce; once the buffers have held a call as wide,
// the call allocates nothing. Ranks that disagree on the collective
// order get an error instead of the sums (takeReduce).
func (d *Dist) AllReduceSumVec(x []float64) ([]float64, error) {
	start := time.Now()
	r := d.R
	size := r.W.Size()
	width := len(x)
	defer func() {
		d.Sc.Counter("allreduces").Inc()
		d.Sc.Timer("allreduce").Observe(time.Since(start))
	}()
	if size == 1 {
		d.ar.out = append(d.ar.out[:0], x...)
		return d.ar.out, nil
	}
	id := r.ID
	// Gather: fold in each child subtree's raw blocks (contiguous,
	// ascending), then hand the combined run to the parent.
	up := &d.ar.up
	up.v = append(up.v[:0], x...)
	for bit := 1; bit < size; bit <<= 1 {
		if id&bit != 0 {
			r.Send(id-bit, up)
			break
		}
		if src := id + bit; src < size {
			m, err := takeReduce(r, src)
			if err != nil {
				return nil, err
			}
			up.v = append(up.v, m.v...)
		}
	}
	var down *reduceMsg
	if id == 0 {
		// up now holds every rank's raw vector in ascending rank order;
		// sum left-associated like the serial gather did.
		down = &d.ar.down
		if cap(down.v) < width {
			down.v = make([]float64, width)
		}
		res := down.v[:width]
		clear(res)
		for b := 0; b*width < len(up.v); b++ {
			row := up.v[b*width:]
			for i := 0; i < width; i++ {
				res[i] += row[i]
			}
		}
		down.v = res
	} else {
		var err error
		if down, err = takeReduce(r, id-lowbit(id)); err != nil {
			return nil, err
		}
	}
	// Broadcast down, to the children of the gather in its order. The sums
	// travel the tree read-only; every rank copies them out.
	for bit := 1; bit < size && id&bit == 0; bit <<= 1 {
		if c := id + bit; c < size {
			r.Send(c, down)
		}
	}
	d.ar.out = append(d.ar.out[:0], down.v...)
	return d.ar.out, nil
}

// takeReduce takes the next tree hop from src. Like an exchange's Wait it
// gives up at the world's quiet, with an *ExchangeError naming src, and
// it returns a *PayloadError when src's next message belongs to another
// collective: in either case the ranks disagree on the collective order.
func takeReduce(r *Rank, src int) (*reduceMsg, error) {
	v, ok := r.take(src)
	if !ok {
		return nil, &ExchangeError{Rank: r.ID, Missing: []int{src}}
	}
	return payloadAs[*reduceMsg](r.ID, src, v)
}
