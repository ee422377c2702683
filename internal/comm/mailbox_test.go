package comm

import (
	"runtime"
	"testing"
	"time"
)

// atLeastProcs raises GOMAXPROCS to n for the rest of the test.
func atLeastProcs(t *testing.T, n int) {
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// waited reports whether rank id has counted itself waiting in a pull
// since its world began: World.wait sets its inbox's epoch, -1 until then.
func waited(w *World, id int) bool {
	b := &w.inbox[id]
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.epoch >= 0
}

// TestMailbox pins the properties the exchange rests on, under -race
// in scripts/check.sh: messages of one sender arrive in the order it sent
// them whatever the other senders do; silence is reported when, and only
// when, the world is quiet — every rank waiting in pull or done, and
// nothing in flight; a rank that computes, however long, keeps the world
// from going quiet; and every rank waiting for the quiet is told of it,
// even when mail sent in reaction to it reaches the rank first. A rank
// that fits the processors polls its empty mailbox while a peer computes,
// and takes what comes then without counting itself waiting; it still
// hears the quiet when every rank waits; an oversubscribed world never
// polls.
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
				m, ok := w.pull(0)
				if !ok {
					t.Error("pull reported silence while senders had mail to send")
					return
				}
				if m.v.(int) != next[m.from] {
					t.Errorf("sender %d: message %d arrived where %d was due", m.from, m.v, next[m.from])
					return
				}
				next[m.from]++
			}
			// Every sender is done: the world goes quiet as this rank waits.
			if m, ok := w.pull(0); ok {
				t.Errorf("a message beyond the ones sent: %v", m)
			}
		})
	})
	t.Run("silence when the world is quiet", func(t *testing.T) {
		w := NewWorld(1)
		w.Run(func(r *Rank) {
			if m, ok := w.pull(0); ok {
				t.Errorf("pull on the empty mailbox of a one-rank world returned %v", m)
			}
		})
		// Two ranks waiting on each other with nothing in flight: both
		// hear the silence, and neither is left waiting.
		w = NewWorld(2)
		w.Run(func(r *Rank) {
			if m, ok := w.pull(r.ID); ok {
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
			if m, ok := w.pull(0); !ok || m.v.(int) != 7 {
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
				m, ok := w.pull(r.ID)
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
		// that mail queued; it must still hear the quiet first, so that
		// every rank waiting at the quiet fails its exchange and none
		// completes it with mail sent after it.
		const rounds = 2000
		w := NewWorld(2)
		w.Run(func(r *Rank) {
			for i := 0; i < rounds; i++ {
				if m, ok := w.pull(r.ID); ok {
					t.Errorf("rank %d round %d: mail %v instead of the quiet", r.ID, i, m)
					return
				}
				r.Send(1-r.ID, i)
				if m, ok := w.pull(r.ID); !ok || m.v.(int) != i {
					t.Errorf("rank %d round %d: (%v, %v)", r.ID, i, m, ok)
					return
				}
			}
		})
	})
	t.Run("a put to a spinning receiver wakes no one", func(t *testing.T) {
		// Rank 1 computes until it sees rank 0 spin on its empty mailbox,
		// then sends: rank 0 takes the message without ever counting
		// itself waiting (or sleeping). Only a round in which both ranks
		// run at once shows it: on a loaded host the two threads may take
		// turns on one CPU, rank 0 spinning out its bound while rank 1
		// waits for the CPU. Such a round proves nothing and is run again.
		atLeastProcs(t, 2)
		const rounds = 100
		for round := 0; round < rounds; round++ {
			w := NewWorld(2)
			var seen bool
			w.Run(func(r *Rank) {
				if r.ID == 1 {
					for !waited(w, 0) {
						if seen = w.spinning.Load() == 1; seen {
							break
						}
					}
					r.Send(0, 7)
					return
				}
				if m, ok := w.pull(0); !ok || m.v.(int) != 7 {
					t.Errorf("pull: (%v, %v)", m, ok)
				}
			})
			if seen {
				if waited(w, 0) {
					t.Error("rank 0 counted itself waiting for a message put while it spun")
				}
				return
			}
		}
		t.Skipf("rank 1 never ran while rank 0 spun in %d rounds: the host never ran both at once", rounds)
	})
	t.Run("ranks that fit the processors still hear the quiet", func(t *testing.T) {
		// Both ranks spin only while the other computes: when both wait,
		// both park and the world goes quiet, round after round.
		atLeastProcs(t, 2)
		const rounds = 2000
		w := NewWorld(2)
		w.Run(func(r *Rank) {
			if !w.spin {
				t.Error("a 2-rank world on 2 processors does not spin")
			}
			for i := 0; i < rounds; i++ {
				if m, ok := w.pull(r.ID); ok {
					t.Errorf("rank %d round %d: mail %v instead of the quiet", r.ID, i, m)
					return
				}
				r.Send(1-r.ID, i)
				if m, ok := w.pull(r.ID); !ok || m.v.(int) != i {
					t.Errorf("rank %d round %d: (%v, %v)", r.ID, i, m, ok)
					return
				}
			}
		})
	})
	t.Run("a world larger than GOMAXPROCS never spins", func(t *testing.T) {
		// Every rank but 0 computes until rank 0 has counted itself
		// waiting, watching that no rank polls, and then sends to it.
		n := runtime.GOMAXPROCS(0) + 1
		w := NewWorld(n)
		w.Run(func(r *Rank) {
			if r.ID > 0 {
				for !waited(w, 0) {
					if w.spin || w.spinning.Load() != 0 {
						t.Errorf("a rank spins in a world of %d ranks on %d processors", n, n-1)
						break
					}
					runtime.Gosched()
				}
				r.Send(0, r.ID)
				return
			}
			for k := 1; k < n; k++ {
				if _, ok := w.pull(0); !ok {
					t.Errorf("pull %d: the quiet while ranks computed", k)
					return
				}
			}
		})
	})
}
