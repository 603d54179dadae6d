package netwire_test

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/algebra"
	"repro/internal/netwire"
	"repro/internal/simnet"
)

// collect records delivered payloads concurrency-safely.
type collect struct {
	mu   sync.Mutex
	msgs []any
}

func (c *collect) add(p any) {
	c.mu.Lock()
	c.msgs = append(c.msgs, p)
	c.mu.Unlock()
}

func (c *collect) snapshot() []any {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]any(nil), c.msgs...)
}

// pair builds a started two-node cluster hosting sites "sa" and "sb".
func pair(t *testing.T, fp *simnet.FaultPlan) (a, b *netwire.Node, ca, cb *collect) {
	t.Helper()
	mk := func(id string, idx int) *netwire.Node {
		return netwire.NewNode(netwire.Config{
			ID: id, ListenAddr: "127.0.0.1:0", NodeIndex: idx, Fault: fp,
			RetryMin: 2 * time.Millisecond, RetryMax: 50 * time.Millisecond,
		})
	}
	a, b = mk("A", 0), mk("B", 1)
	addrA, err := a.Listen()
	if err != nil {
		t.Fatal(err)
	}
	addrB, err := b.Listen()
	if err != nil {
		t.Fatal(err)
	}
	ca, cb = &collect{}, &collect{}
	a.Register("sa", func(_ actor.Net, p any) { ca.add(p) })
	b.Register("sb", func(_ actor.Net, p any) { cb.add(p) })
	peers := map[simnet.SiteID]string{"sa": addrA, "sb": addrB}
	a.Start(peers)
	b.Start(peers)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b, ca, cb
}

func announce(i int) actor.AnnounceMsg {
	return actor.AnnounceMsg{Sym: algebra.Sym(fmt.Sprintf("e%d", i)), At: int64(i)}
}

func TestLocalDelivery(t *testing.T) {
	a, _, ca, _ := pair(t, nil)
	a.Send("sa", "sa", announce(1))
	if !a.WaitIdle(2 * time.Second) {
		t.Fatal("node not idle")
	}
	got := ca.snapshot()
	if len(got) != 1 || got[0].(actor.AnnounceMsg).At != 1 {
		t.Fatalf("local delivery: got %v", got)
	}
}

func TestRemoteDeliveryInOrder(t *testing.T) {
	a, b, ca, cb := pair(t, nil)
	const n = 50
	for i := 0; i < n; i++ {
		a.Send("sa", "sb", announce(i))
		b.Send("sb", "sa", announce(1000+i))
	}
	if !netwire.WaitQuiescent(5*time.Second, a, b) {
		t.Fatal("cluster not idle")
	}
	gotB := cb.snapshot()
	if len(gotB) != n {
		t.Fatalf("sb received %d messages, want %d", len(gotB), n)
	}
	for i, m := range gotB {
		if m.(actor.AnnounceMsg).At != int64(i) {
			t.Fatalf("out of order without faults: position %d holds %v", i, m)
		}
	}
	if got := len(ca.snapshot()); got != n {
		t.Fatalf("sa received %d messages, want %d", got, n)
	}
}

// TestReconnect starts the sender before the receiver's listener is
// accepting; backoff dialing plus retransmission must deliver once the
// receiver comes up.
func TestReconnect(t *testing.T) {
	// Reserve a port, then release it for the late receiver.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lateAddr := probe.Addr().String()
	probe.Close()

	a := netwire.NewNode(netwire.Config{
		ID: "A", ListenAddr: "127.0.0.1:0", NodeIndex: 0,
		RetryMin: 2 * time.Millisecond, RetryMax: 20 * time.Millisecond,
	})
	if _, err := a.Listen(); err != nil {
		t.Fatal(err)
	}
	a.Start(map[simnet.SiteID]string{"sb": lateAddr})
	defer a.Close()

	a.Send("sa", "sb", announce(7)) // nothing is listening yet

	time.Sleep(50 * time.Millisecond)
	b := netwire.NewNode(netwire.Config{ID: "B", ListenAddr: lateAddr, NodeIndex: 1})
	if _, err := b.Listen(); err != nil {
		t.Fatalf("late bind: %v", err)
	}
	cb := &collect{}
	b.Register("sb", func(_ actor.Net, p any) { cb.add(p) })
	b.Start(nil)
	defer b.Close()

	if !netwire.WaitQuiescent(5*time.Second, a, b) {
		t.Fatal("cluster not idle after reconnect")
	}
	got := cb.snapshot()
	if len(got) != 1 || got[0].(actor.AnnounceMsg).At != 7 {
		t.Fatalf("reconnect delivery: got %v", got)
	}
}

// TestChaosExactlyOnceEffect hammers a lossy, duplicating, reordering
// link and demands every message arrive exactly once: at-least-once
// delivery plus receiver dedup.
func TestChaosExactlyOnceEffect(t *testing.T) {
	fp := &simnet.FaultPlan{
		Seed: 99, Drop: 0.4, Dup: 0.25, Delay: 0.15, Reorder: 0.1,
		DelayMax: 3000, ReorderDelay: 2000,
	}
	a, b, _, cb := pair(t, fp)
	const n = 120
	for i := 0; i < n; i++ {
		a.Send("sa", "sb", announce(i))
	}
	if !netwire.WaitQuiescent(20*time.Second, a, b) {
		t.Fatalf("cluster not idle under chaos (a=%d b=%d pending)", a.Pending(), b.Pending())
	}
	counts := map[int64]int{}
	for _, m := range cb.snapshot() {
		counts[m.(actor.AnnounceMsg).At]++
	}
	for i := 0; i < n; i++ {
		if counts[int64(i)] != 1 {
			t.Errorf("message %d delivered %d times, want exactly 1", i, counts[int64(i)])
		}
	}
	if len(counts) != n {
		t.Errorf("distinct messages delivered: %d, want %d", len(counts), n)
	}
}

// TestPartitionHeal verifies frames sent during a partition are
// withheld, then delivered after the window closes.
func TestPartitionHeal(t *testing.T) {
	fp := &simnet.FaultPlan{
		Seed: 5,
		Partitions: []simnet.Partition{
			{A: "sa", B: "sb", From: 0, Until: 60_000}, // first 60ms of node time
		},
	}
	a, b, _, cb := pair(t, fp)
	a.Send("sa", "sb", announce(3))
	time.Sleep(20 * time.Millisecond)
	if got := len(cb.snapshot()); got != 0 {
		t.Fatalf("delivered %d messages inside the partition window", got)
	}
	if !netwire.WaitQuiescent(10*time.Second, a, b) {
		t.Fatal("cluster not idle after heal")
	}
	got := cb.snapshot()
	if len(got) != 1 || got[0].(actor.AnnounceMsg).At != 3 {
		t.Fatalf("post-heal delivery: got %v", got)
	}
}

// TestOccurrenceClock checks the Lamport property: an occurrence index
// issued after receiving a message exceeds any index issued before
// sending it, across nodes.
func TestOccurrenceClock(t *testing.T) {
	a, b, _, cb := pair(t, nil)
	before := a.NextOccurrence()
	for i := 0; i < 5; i++ {
		a.NextOccurrence() // advance A's clock well past B's
	}
	a.Send("sa", "sb", announce(1))
	if !netwire.WaitQuiescent(5*time.Second, a, b) {
		t.Fatal("cluster not idle")
	}
	if len(cb.snapshot()) != 1 {
		t.Fatal("message not delivered")
	}
	after := b.NextOccurrence()
	if after <= before {
		t.Fatalf("occurrence clock not Lamport-ordered: before=%d after=%d", before, after)
	}
	// Distinct node indices keep indices unique even at equal counters.
	if before&(netwire.MaxNodes-1) == after&(netwire.MaxNodes-1) {
		t.Fatalf("node tiebreak collision: %d vs %d", before, after)
	}
}

func TestDedupStats(t *testing.T) {
	fp := &simnet.FaultPlan{Seed: 42, Dup: 0.9}
	a, b, _, _ := pair(t, fp)
	for i := 0; i < 40; i++ {
		a.Send("sa", "sb", announce(i))
	}
	if !netwire.WaitQuiescent(10*time.Second, a, b) {
		t.Fatal("cluster not idle")
	}
	delivered, deduped := b.Stats()
	if delivered != 40 {
		t.Errorf("delivered %d, want 40", delivered)
	}
	if deduped == 0 {
		t.Error("dup-heavy plan produced no dedup hits")
	}
}
