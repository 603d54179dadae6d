package netwire_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/algebra"
	"repro/internal/netwire"
	"repro/internal/simnet"
	"repro/internal/symtab"
)

// burst fires n announcements from sa to sb back-to-back.  The first
// frames queue while the link is still dialing, so the session's
// coalescing loop reliably finds a backlog to batch.
func burst(a *netwire.Node, n int) {
	for i := 0; i < n; i++ {
		a.Send("sa", "sb", announce(i))
	}
}

// checkExactlyOnceInOrder asserts sb received 0..n-1 exactly once and
// strictly in send order — batching must not perturb the per-link FIFO
// the actor protocol assumes.
func checkExactlyOnceInOrder(t *testing.T, cb *collect, n int) {
	t.Helper()
	got := cb.snapshot()
	if len(got) != n {
		t.Fatalf("sb received %d messages, want %d", len(got), n)
	}
	for i, m := range got {
		if at := m.(actor.AnnounceMsg).At; at != int64(i) {
			t.Fatalf("FIFO violated: position %d holds message %d", i, at)
		}
	}
}

// TestBatchCoalescingBurst: a fault-free burst is coalesced into batch
// frames (observable in BatchStats) and still delivered exactly once,
// in order.
func TestBatchCoalescingBurst(t *testing.T) {
	a, b, _, cb := pair(t, nil)
	const n = 500
	burst(a, n)
	if !netwire.WaitQuiescent(10*time.Second, a, b) {
		t.Fatal("cluster not idle")
	}
	checkExactlyOnceInOrder(t, cb, n)
	batches, frames := a.BatchStats()
	if batches == 0 {
		t.Fatal("burst of 500 produced no batch frames")
	}
	if frames <= batches {
		t.Fatalf("no coalescing: %d frames in %d batches", frames, batches)
	}
	t.Logf("coalescing: %d frames in %d batches (%.1f per batch)",
		frames, batches, float64(frames)/float64(batches))
}

// TestBatchChaosExactlyOnce sends bursts through fault plans that
// strike whole batches — drop, duplicate, delay, reorder are drawn
// once per transmission (FaultPlan.VerdictFor) — and demands the
// reliability layer mask all of it: every message exactly once, in
// order, with receiver dedup and in-order release untouched by how
// frames were grouped.
func TestBatchChaosExactlyOnce(t *testing.T) {
	plans := []*simnet.FaultPlan{
		{Seed: 17, Drop: 0.5, Dup: 0.5, DelayMax: 2000},
		{Seed: 23, Drop: 0.3, Dup: 0.3, Delay: 0.25, Reorder: 0.2, DelayMax: 3000, ReorderDelay: 2000},
	}
	var totalBatches, totalDeduped int64
	for _, fp := range plans {
		a, b, _, cb := pair(t, fp)
		const n = 400
		burst(a, n)
		if !netwire.WaitQuiescent(30*time.Second, a, b) {
			t.Fatalf("plan seed %d: cluster not idle (a=%d b=%d pending)",
				fp.Seed, a.Pending(), b.Pending())
		}
		checkExactlyOnceInOrder(t, cb, n)
		batches, _ := a.BatchStats()
		_, deduped := b.Stats()
		totalBatches += batches
		totalDeduped += deduped
		a.Close()
		b.Close()
	}
	if totalBatches == 0 {
		t.Error("chaos bursts never exercised the batch path")
	}
	// Half the batches are dropped or duplicated; go-back-N retransmits
	// the rest.  Zero dedup hits would mean duplicates bypassed the
	// receiver's sequence filter.
	if totalDeduped == 0 {
		t.Error("drop/dup-heavy plans produced no dedup hits")
	}
}

// TestBatchDelayPayloadsExact: under a delay plan about half the
// transmissions are built in a private copy and written late from a
// timer, while the rest reuse the link's frame buffer in between.  Sends
// are paced so there are many transmissions, and payload lengths vary.
// Every payload must arrive byte-exact, exactly once and in order, and
// the receiver must see no malformed frame: retransmission would mask a
// late write that aliased the reused buffer, but not the parse error it
// causes first.
func TestBatchDelayPayloadsExact(t *testing.T) {
	fp := &simnet.FaultPlan{Seed: 41, Delay: 0.5, DelayMax: 1500}
	var mu sync.Mutex
	var errs []string
	mk := func(id string, idx int, logf func(string, ...any)) *netwire.Node {
		return netwire.NewNode(netwire.Config{
			ID: id, ListenAddr: "127.0.0.1:0", NodeIndex: idx, Fault: fp,
			RetryMin: 2 * time.Millisecond, RetryMax: 50 * time.Millisecond, Logf: logf,
		})
	}
	a := mk("A", 0, nil)
	b := mk("B", 1, func(format string, args ...any) {
		mu.Lock()
		errs = append(errs, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	t.Cleanup(func() { a.Close(); b.Close() })
	addrA, err := a.Listen()
	if err != nil {
		t.Fatal(err)
	}
	addrB, err := b.Listen()
	if err != nil {
		t.Fatal(err)
	}
	cb := &collect{}
	a.Register("sa", func(actor.Net, any) {})
	b.Register("sb", func(_ actor.Net, p any) { cb.add(p) })
	peers := map[simnet.SiteID]string{"sa": addrA, "sb": addrB}
	a.Start(peers)
	b.Start(peers)

	const n = 400
	tab := symtab.New()
	sent := make([]actor.AnnounceMsg, n)
	for i := range sent {
		sent[i] = actor.AnnounceMsg{ID: tab.Add(algebra.Sym(fmt.Sprintf("e%d%s", i, strings.Repeat("x", i%37)))), At: int64(i)}
	}
	a.UseSymbols(tab)
	b.UseSymbols(tab)
	for i := range sent {
		a.Send("sa", "sb", sent[i])
		if i%4 == 3 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	if !netwire.WaitQuiescent(20*time.Second, a, b) {
		t.Fatalf("cluster not idle (a=%d b=%d pending)", a.Pending(), b.Pending())
	}
	mu.Lock()
	if len(errs) > 0 {
		t.Errorf("receiver saw %d malformed inbound frames, first: %s", len(errs), errs[0])
	}
	mu.Unlock()
	got := cb.snapshot()
	if len(got) != n {
		t.Fatalf("sb received %d messages, want %d", len(got), n)
	}
	for i, m := range got {
		want, _ := actor.AppendPayload(tab, nil, sent[i])
		have, err := actor.AppendPayload(tab, nil, m)
		if err != nil || !bytes.Equal(have, want) {
			t.Fatalf("position %d: payload %x, want %x (%v)", i, have, want, err)
		}
	}
}

// TestBatchPartitionHeal: a partition withholds the individual frames
// of a batch (Blocked is checked per frame, before the verdict); after
// the window closes retransmission delivers them in order.
func TestBatchPartitionHeal(t *testing.T) {
	fp := &simnet.FaultPlan{
		Seed: 31,
		Partitions: []simnet.Partition{
			{A: "sa", B: "sb", From: 0, Until: 50_000},
		},
	}
	a, b, _, cb := pair(t, fp)
	const n = 200
	burst(a, n)
	time.Sleep(15 * time.Millisecond)
	if got := len(cb.snapshot()); got != 0 {
		t.Fatalf("delivered %d messages inside the partition window", got)
	}
	if !netwire.WaitQuiescent(15*time.Second, a, b) {
		t.Fatal("cluster not idle after heal")
	}
	checkExactlyOnceInOrder(t, cb, n)
}
