package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCommitterCoalesces opens several logs on one committer, appends
// to all of them concurrently, and checks (a) every record is durable
// and survives reopen, (b) the committer spent far fewer rounds than
// there were records — i.e. cross-log coalescing actually happened.
func TestCommitterCoalesces(t *testing.T) {
	root := t.TempDir()
	c := NewCommitter(CommitterOptions{})
	const L, N = 6, 40
	logs := make([]*Log, L)
	for i := range logs {
		l, err := Open(filepath.Join(root, fmt.Sprint("log", i)), Options{Committer: c})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		logs[i] = l
	}
	var wg sync.WaitGroup
	for _, l := range logs {
		wg.Add(1)
		go func(l *Log) {
			defer wg.Done()
			var last uint64
			for i := 0; i < N; i++ {
				last = l.Append(Record{Kind: KFire, Site: "a", Sym: "x", At: int64(i)})
			}
			l.WaitDurable(last)
		}(l)
	}
	wg.Wait()
	rounds := c.rounds.Load()
	if rounds == 0 || rounds >= L*N {
		t.Fatalf("rounds = %d, want coalescing (0 < rounds < %d)", rounds, L*N)
	}
	for _, l := range logs {
		l.Close()
	}
	c.Close()
	for i := range logs {
		l, err := Open(filepath.Join(root, fmt.Sprint("log", i)), Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if got := len(l.Recovery().Fires); got != N {
			t.Fatalf("log %d recovered %d fires, want %d", i, got, N)
		}
		l.Close()
	}
}

// TestCommitterChurn churns registration: logs open, append, wait, and
// close continuously while others do the same on the shared committer.
// Run under -race this exercises the register/unregister/nudge/commit
// interleavings; the invariant is simply that every WaitDurable
// returns and every closed log's records are on disk.
func TestCommitterChurn(t *testing.T) {
	root := t.TempDir()
	c := NewCommitter(CommitterOptions{})
	defer c.Close()
	var wg sync.WaitGroup
	var total atomic.Int64
	const G, rounds, perLog = 4, 8, 16
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				dir := filepath.Join(root, fmt.Sprintf("g%dr%d", g, r))
				l, err := Open(dir, Options{Committer: c})
				if err != nil {
					t.Errorf("Open: %v", err)
					return
				}
				var last uint64
				for i := 0; i < perLog; i++ {
					last = l.Append(Record{Kind: KFire, Site: "a", Sym: "x", At: int64(i)})
				}
				l.WaitDurable(last)
				l.Close()
				total.Add(perLog)
			}
		}(g)
	}
	wg.Wait()
	if total.Load() != G*rounds*perLog {
		t.Fatalf("total = %d, want %d", total.Load(), G*rounds*perLog)
	}
	// Spot-check one log per goroutine survives reopen in full.
	for g := 0; g < G; g++ {
		l, err := Open(filepath.Join(root, fmt.Sprintf("g%dr%d", g, rounds-1)), Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if got := len(l.Recovery().Fires); got != perLog {
			t.Fatalf("g%d recovered %d fires, want %d", g, got, perLog)
		}
		l.Close()
	}
}

// TestNotify pins the notification contract: a future LSN fires after
// the group commit covering it, an already-durable LSN fires inline,
// and Close releases anything still parked.
func TestNotify(t *testing.T) {
	l := openT(t, t.TempDir())
	lsn := l.Append(Record{Kind: KFire, Site: "a", Sym: "x", At: 1})
	ch := make(chan uint64, 3)
	l.Notify(lsn, func(err error) {
		if err == nil {
			ch <- 1
		}
	})
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("notify on pending LSN never fired")
	}
	if l.Durable() < lsn {
		t.Fatalf("notify fired before durable: durable=%d lsn=%d", l.Durable(), lsn)
	}
	// Already durable: fires inline.
	fired := false
	l.Notify(lsn, func(err error) { fired = err == nil })
	if !fired {
		t.Fatal("notify on durable LSN did not fire inline")
	}
	// Parked past the end of the log: Close must release it.
	l.Notify(lsn+100, func(err error) {
		if errors.Is(err, ErrClosed) {
			ch <- 2
		}
	})
	l.Close()
	select {
	case v := <-ch:
		if v != 2 {
			t.Fatalf("unexpected notification %d", v)
		}
	default:
		t.Fatal("Close left a notification parked")
	}
}

// TestCommitterCloseEarly violates the close order on purpose: closing
// the committer while logs are still open and appending must keep
// committing them on the same loop, so no append is stranded
// un-durable, and the loop must exit once the last of them closes.
func TestCommitterCloseEarly(t *testing.T) {
	root := t.TempDir()
	c := NewCommitter(CommitterOptions{})
	logs := make([]*Log, 3)
	for i := range logs {
		l, err := Open(filepath.Join(root, fmt.Sprint("log", i)), Options{Committer: c})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		logs[i] = l
	}
	for _, l := range logs {
		l.Append(Record{Kind: KFire, Site: "a", Sym: "x", At: 1})
	}
	c.Close() // logs stay registered; the loop keeps committing them
	for i, l := range logs {
		lsn := l.Append(Record{Kind: KFire, Site: "a", Sym: "y", At: 2})
		l.WaitDurable(lsn)
		if l.Durable() < lsn {
			t.Fatalf("log %d: append after committer Close never became durable", i)
		}
		select {
		case <-c.done:
			t.Fatalf("commit loop exited with %d logs still open", len(logs)-i)
		default:
		}
		l.Close()
	}
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		t.Fatal("commit loop still running after its last log closed")
	}
	for i := range logs {
		l, err := Open(filepath.Join(root, fmt.Sprint("log", i)), Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if got := len(l.Recovery().Fires); got != 2 {
			t.Fatalf("log %d recovered %d fires, want 2", i, got)
		}
		l.Close()
	}
}

// TestCommitterClosedRefusesOpen: Open against a closed committer is an
// error, not a log nobody commits; a log opened without a committer
// gets a private one that its Close stops.
func TestCommitterClosedRefusesOpen(t *testing.T) {
	root := t.TempDir()
	c := NewCommitter(CommitterOptions{})
	c.Close()
	if l, err := Open(filepath.Join(root, "late"), Options{Committer: c}); err == nil {
		l.Close()
		t.Fatal("Open on a closed committer succeeded")
	}

	l := openT(t, filepath.Join(root, "private"))
	own := l.committer
	l.WaitDurable(l.Append(Record{Kind: KFire, Site: "a", Sym: "x", At: 1}))
	l.Close()
	select {
	case <-own.done:
	case <-time.After(5 * time.Second):
		t.Fatal("private commit loop still running after its log closed")
	}
}

// TestWALAppendZeroAlloc gates the append hot path: once the buffer
// recycling warms up, Append must not allocate.  (The benchsmoke gate
// alongside the announce/encode zero-alloc contracts.)
func TestWALAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	l, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	rec := Record{Kind: KFire, Site: "site-a", Sym: "event", At: 7}
	// Warm up the two recycled buffers (buf/spare ping-pong through the
	// committer) well past the measured run's worst-case backlog, so no
	// append can outgrow a buffer mid-measurement.
	big := Record{Kind: KFire, Site: "site-a", Sym: "event", Payload: make([]byte, 512<<10)}
	for i := 0; i < 4; i++ {
		l.WaitDurable(l.Append(big))
	}
	l.WaitDurable(l.Append(rec))
	if avg := testing.AllocsPerRun(2000, func() { l.Append(rec) }); avg != 0 {
		t.Fatalf("Append allocates %v times per record, want 0", avg)
	}
}
