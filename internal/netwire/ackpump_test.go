package netwire

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/simnet"
	"repro/internal/wal"
)

// TestAckPumpReadsDuringCommit holds a commit round of the receiver's
// log open and sends k frames one at a time, each as its own batch of
// one.  The receiver's read loop must log all k inbound records while
// that round is stalled — the durable ack waits on the ack pump, never
// on the read path — and the sender must prune nothing until the
// receiver's durable LSN covers those records (acked ⇒ durable).
func TestAckPumpReadsDuringCommit(t *testing.T) {
	const k = 8
	dir := t.TempDir()

	wb, err := wal.Open(filepath.Join(dir, "b"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Stall the receiver's committer: a callback parked on the primer
	// record runs on the commit goroutine and blocks it until released,
	// so no later record can become durable meanwhile.
	release := make(chan struct{})
	var releaseOnce sync.Once
	unstall := func() { releaseOnce.Do(func() { close(release) }) }
	stalled := make(chan struct{})
	wb.Notify(1, func(error) { close(stalled); <-release })
	wb.Append(wal.Record{Kind: wal.KReject, Site: "sb", Sym: "primer", Note: "stall"})
	select {
	case <-stalled:
	case <-time.After(5 * time.Second):
		unstall()
		wb.Close()
		t.Fatal("primer record never committed")
	}
	const primed = 1 // durable LSN while the round is stalled

	// The sender's log skips fsync so each send is transmitted at once.
	wa, err := wal.Open(filepath.Join(dir, "a"), wal.Options{NoSync: true})
	if err != nil {
		unstall()
		wb.Close()
		t.Fatal(err)
	}
	mk := func(id string, idx int, w *wal.Log) *Node {
		// A retransmission timeout far past the test keeps every frame
		// on the wire exactly once.
		return NewNode(Config{
			ID: id, ListenAddr: "127.0.0.1:0", NodeIndex: idx, WAL: w,
			RetryMin: time.Minute, RetryMax: time.Minute,
		})
	}
	a, b := mk("A", 0, wa), mk("B", 1, wb)
	a.UseSymbols(events)
	b.UseSymbols(events)
	t.Cleanup(func() { unstall(); a.Close(); b.Close() })
	addrA, err := a.Listen()
	if err != nil {
		t.Fatal(err)
	}
	addrB, err := b.Listen()
	if err != nil {
		t.Fatal(err)
	}
	a.Register("sa", func(actor.Net, any) {})
	b.Register("sb", func(actor.Net, any) {})
	peers := map[simnet.SiteID]string{"sa": addrA, "sb": addrB}
	a.Start(peers)
	b.Start(peers)

	deadline := time.Now().Add(10 * time.Second)
	for i := 1; i <= k; i++ {
		a.Send("sa", "sb", actor.AnnounceMsg{ID: eventID(i), At: int64(i)})
		// Frame i is sent only after frame i-1 was logged, so no two
		// frames can share a batch.
		for b.Pending() < int64(i) {
			if time.Now().After(deadline) {
				t.Fatalf("receiver logged %d of %d frames while its commit round was stalled", b.Pending(), k)
			}
			time.Sleep(time.Millisecond)
		}
		if got := a.Pending(); got != int64(i) {
			t.Fatalf("sender pending %d after %d sends inside the stalled round; an ack escaped before durability", got, i)
		}
	}
	if d := wb.Durable(); d != primed {
		t.Fatalf("durable LSN %d moved past the primer while the round was stalled", d)
	}
	if batches, _ := a.BatchStats(); batches != 0 {
		t.Fatalf("sender coalesced %d batches; the test needs %d separate frames", batches, k)
	}

	// The round ends, the pump acks, the sender prunes.  Any pruning seen
	// must already be covered by the receiver's durable LSN: its log holds
	// the primer and then exactly the k KIn records.
	unstall()
	stop := time.Now().Add(10 * time.Second)
	for {
		pending := a.Pending()
		if pending < k {
			if d := wb.Durable(); d < primed+k {
				t.Fatalf("sender pruned to %d pending while the receiver is durable only through LSN %d", pending, d)
			}
		}
		if pending == 0 {
			break
		}
		if time.Now().After(stop) {
			t.Fatalf("sender still holds %d unacked frames after the round", pending)
		}
		time.Sleep(time.Millisecond)
	}
	if !WaitQuiescent(5*time.Second, a, b) {
		t.Fatal("pair not idle after the round")
	}
	if delivered, _ := b.Stats(); delivered != k {
		t.Fatalf("receiver delivered %d frames, want %d", delivered, k)
	}
}
