package comm

import (
	"sync"
	"testing"
	"time"
)

// TestMailbox pins the three properties the protocol above rests on, under
// -race in scripts/check.sh: messages of one sender arrive in the order it
// sent them whatever the other senders do, silence is reported at the
// deadline, and a put that races the deadline is delivered — by the pull
// it raced or by the next one — never lost.
func TestMailbox(t *testing.T) {
	t.Run("per-sender order under concurrent senders", func(t *testing.T) {
		const senders, each = 8, 500
		b := &inbox{wake: make(chan struct{}, 1)}
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					b.put(message{from: s, v: i})
				}
			}(s)
		}
		next := make([]int, senders)
		for k := 0; k < senders*each; k++ {
			m, ok := b.pull(time.Time{})
			if !ok {
				t.Fatal("pull without a deadline reported silence")
			}
			if m.v.(int) != next[m.from] {
				t.Fatalf("sender %d: message %d arrived where %d was due", m.from, m.v, next[m.from])
			}
			next[m.from]++
		}
		wg.Wait()
		if _, ok := b.pull(time.Now().Add(time.Millisecond)); ok {
			t.Fatal("a message beyond the ones sent")
		}
	})
	t.Run("silence at the deadline", func(t *testing.T) {
		b := &inbox{wake: make(chan struct{}, 1)}
		start := time.Now()
		if m, ok := b.pull(start.Add(5 * time.Millisecond)); ok {
			t.Fatalf("pull on an empty mailbox returned %v", m)
		}
		if d := time.Since(start); d < 5*time.Millisecond {
			t.Fatalf("pull gave up after %v, before its deadline", d)
		}
	})
	t.Run("a put racing the deadline", func(t *testing.T) {
		b := &inbox{wake: make(chan struct{}, 1)}
		b.put(message{from: 1, v: -1})
		if m, ok := b.pull(time.Now().Add(-time.Second)); !ok || m.v.(int) != -1 {
			t.Fatalf("pull past its deadline with a message queued: (%v, %v)", m, ok)
		}
		for i := 0; i < 300; i++ {
			const d = 200 * time.Microsecond
			go func() {
				time.Sleep(d)
				b.put(message{from: 1, v: i})
			}()
			m, ok := b.pull(time.Now().Add(d))
			if !ok {
				m, _ = b.pull(time.Time{})
			}
			if m.v.(int) != i {
				t.Fatalf("round %d delivered %v", i, m.v)
			}
		}
	})
}
