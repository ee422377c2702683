package comm

import (
	"testing"
	"time"
)

// TestMailbox pins the properties the protocol above rests on, under -race
// in scripts/check.sh: messages of one sender arrive in the order it sent
// them whatever the other senders do; silence is reported when, and only
// when, the world is quiet — every rank waiting in pull or done, and
// nothing in flight; a rank that computes, however long, keeps the world
// from going quiet; and every rank waiting for the quiet is told of it,
// even when mail sent in reaction to it reaches the rank first.
func TestMailbox(t *testing.T) {
	t.Run("per-sender order under concurrent senders", func(t *testing.T) {
		const senders, each = 8, 500
		w := NewWorld(senders + 1)
		w.Run(func(r *Rank) {
			if r.ID > 0 {
				for i := 0; i < each; i++ {
					r.Send(0, i)
				}
				return
			}
			next := make([]int, senders+1)
			for k := 0; k < senders*each; k++ {
				m, ok := w.pull(0, false)
				if !ok {
					t.Error("pull without untilQuiet reported silence")
					return
				}
				if m.v.(int) != next[m.from] {
					t.Errorf("sender %d: message %d arrived where %d was due", m.from, m.v, next[m.from])
					return
				}
				next[m.from]++
			}
			// Every sender is done: the world goes quiet as this rank waits.
			if m, ok := w.pull(0, true); ok {
				t.Errorf("a message beyond the ones sent: %v", m)
			}
		})
	})
	t.Run("silence when the world is quiet", func(t *testing.T) {
		w := NewWorld(1)
		w.Run(func(r *Rank) {
			if m, ok := w.pull(0, true); ok {
				t.Errorf("pull on the empty mailbox of a one-rank world returned %v", m)
			}
		})
		// Two ranks waiting on each other with nothing in flight: both
		// hear the silence, and neither is left waiting.
		w = NewWorld(2)
		w.Run(func(r *Rank) {
			if m, ok := w.pull(r.ID, true); ok {
				t.Errorf("rank %d: pull returned %v with nothing sent", r.ID, m)
			}
		})
	})
	t.Run("a busy rank is waited for", func(t *testing.T) {
		w := NewWorld(2)
		start := time.Now()
		const compute = 30 * time.Millisecond
		w.Run(func(r *Rank) {
			if r.ID == 1 {
				time.Sleep(compute)
				r.Send(0, 7)
				return
			}
			if m, ok := w.pull(0, true); !ok || m.v.(int) != 7 {
				t.Errorf("pull gave up on a computing peer after %v: (%v, %v)", time.Since(start), m, ok)
			}
		})
	})
	t.Run("a put racing the quiet", func(t *testing.T) {
		// A sender that waits right after its put must not leave the world
		// quiet while the receiver has not yet woken: the put counts the
		// receiver busy before it returns. Any false quiet fails a round.
		const rounds = 2000
		w := NewWorld(2)
		w.Run(func(r *Rank) {
			peer := 1 - r.ID
			for i := 0; i < rounds; i++ {
				if r.ID == 0 {
					r.Send(peer, i)
				}
				m, ok := w.pull(r.ID, true)
				if !ok || m.v.(int) != i {
					t.Errorf("rank %d round %d: (%v, %v)", r.ID, i, m, ok)
					return
				}
				if r.ID == 1 {
					r.Send(peer, i)
				}
			}
		})
	})
	t.Run("a quiet is told before the mail that follows it", func(t *testing.T) {
		// Both ranks wait, the world goes quiet, and each mails the other
		// as soon as it hears it. A rank the quiet has not yet woken finds
		// that mail queued; it must still hear the quiet first, or a rank
		// kept busy by retransmissions it cannot use never sends its own.
		const rounds = 2000
		w := NewWorld(2)
		w.Run(func(r *Rank) {
			for i := 0; i < rounds; i++ {
				if m, ok := w.pull(r.ID, true); ok {
					t.Errorf("rank %d round %d: mail %v instead of the quiet", r.ID, i, m)
					return
				}
				r.Send(1-r.ID, i)
				if m, ok := w.pull(r.ID, true); !ok || m.v.(int) != i {
					t.Errorf("rank %d round %d: (%v, %v)", r.ID, i, m, ok)
					return
				}
			}
		})
	})
}
