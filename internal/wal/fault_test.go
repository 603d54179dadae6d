package wal

import (
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// syncFault is the fault-injecting file for the WrapFile seam: writes
// pass through, and from the failAt-th fsync on (1-based) every fsync
// fails with EIO without reaching the file.
type syncFault struct {
	File
	failAt        int64
	syncs, writes atomic.Int64
}

func (f *syncFault) Write(p []byte) (int, error) {
	f.writes.Add(1)
	return f.File.Write(p)
}

func (f *syncFault) Sync() error {
	if f.syncs.Add(1) >= f.failAt {
		return syscall.EIO
	}
	return f.File.Sync()
}

// TestSyncEIOPoisons: EIO on the Nth fsync poisons the log.  Records
// made durable before it stay durable and their notifications fire
// clean; the durable LSN freezes; WaitDurable on the failed LSN and
// on every later one returns the error; no Notify fires as durable
// past the failed LSN; later appends reach neither the file nor an
// fsync; and the log's committer neighbour keeps committing.
func TestSyncEIOPoisons(t *testing.T) {
	const failAt = 3
	dir := t.TempDir()
	c := NewCommitter(CommitterOptions{})
	defer c.Close()
	l, err := Open(filepath.Join(dir, "bad"), Options{Committer: c})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	healthy, err := Open(filepath.Join(dir, "good"), Options{Committer: c})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	fault := &syncFault{failAt: failAt}
	l.WrapFile(func(f File) File { fault.File = f; return fault })

	// Callbacks run on the commit goroutine after waiters wake, so the
	// checks below wait for every one of them first.
	var mu sync.Mutex
	var fired sync.WaitGroup
	notified := map[uint64]error{}
	notify := func(lsn uint64) {
		fired.Add(1)
		l.Notify(lsn, func(err error) {
			mu.Lock()
			notified[lsn] = err
			mu.Unlock()
			fired.Done()
		})
	}
	rec := Record{Kind: KFire, Site: "a", Sym: "x", At: 1}
	var good uint64
	for i := 1; i < failAt; i++ {
		good = l.Append(rec)
		notify(good)
		if err := l.WaitDurable(good); err != nil {
			t.Fatalf("fsync %d: %v", i, err)
		}
	}
	bad := l.Append(rec)
	notify(bad)
	if err := l.WaitDurable(bad); !errors.Is(err, syscall.EIO) {
		t.Fatalf("WaitDurable past the failed fsync: %v, want EIO", err)
	}
	if err := l.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync on the failed log: %v, want EIO", err)
	}
	if got := l.Durable(); got != good {
		t.Fatalf("durable LSN moved to %d on a failed fsync, want %d", got, good)
	}

	// The poisoned log takes no more I/O: later appends fail.
	writes, syncs := fault.writes.Load(), fault.syncs.Load()
	for i := 0; i < 4; i++ {
		lsn := l.Append(rec)
		notify(lsn)
		if err := l.WaitDurable(lsn); !errors.Is(err, syscall.EIO) {
			t.Fatalf("append after poisoning: WaitDurable = %v, want EIO", err)
		}
	}
	if err := l.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync on a poisoned log: %v, want EIO", err)
	}
	if err := l.Snapshot(Meta{}, nil); err == nil {
		t.Fatal("Snapshot of a poisoned log succeeded")
	}
	if w, s := fault.writes.Load(), fault.syncs.Load(); w != writes || s != syncs || s != failAt {
		t.Fatalf("poisoned log kept doing I/O: writes %d→%d, fsyncs %d→%d (failed at %d)", writes, w, syncs, s, failAt)
	}
	if got := l.Durable(); got != good {
		t.Fatalf("durable LSN moved to %d after poisoning, want %d", got, good)
	}

	done := make(chan struct{})
	go func() { fired.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a notification never fired")
	}
	mu.Lock()
	for lsn, err := range notified {
		if lsn <= good && err != nil {
			t.Errorf("notify on durable LSN %d got %v", lsn, err)
		}
		if lsn > good && !errors.Is(err, syscall.EIO) {
			t.Errorf("notify on LSN %d past the failure got %v, want EIO", lsn, err)
		}
	}
	if len(notified) != failAt+4 {
		t.Errorf("%d notifications fired, want %d", len(notified), failAt+4)
	}
	mu.Unlock()

	if err := healthy.WaitDurable(healthy.Append(rec)); err != nil {
		t.Fatalf("the failed log poisoned its committer neighbour: %v", err)
	}
}
