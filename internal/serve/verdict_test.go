package serve

import (
	"testing"
	"time"

	"repro/internal/wal"
)

const chainSpec = "workflow chain\ndep c1: ~b + a . b\nevent a site=s1\nevent b site=s2\n"

// wedgedLaunch registers the chain spec on a one-shard durable server,
// blocks the shard worker, and admits one scripted instance behind the
// block.  The instance runs once unblock is called.
func wedgedLaunch(t *testing.T) (srv *Server, inst *Instance, unblock func()) {
	t.Helper()
	srv, err := NewServer(Config{Shards: 1, WALRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Drain)
	if _, rerr := srv.RegisterSpec("acme", "chain", chainSpec); rerr != nil {
		t.Fatal(rerr)
	}
	block := make(chan struct{})
	srv.shards[0].mbox <- func() { <-block }
	inst, rerr := srv.Launch("acme", "chain", ModeScripted, 5)
	if rerr != nil {
		t.Fatal(rerr)
	}
	return srv, inst, func() { close(block) }
}

// TestDoneCarriesVerdict: finalize looks up the shard log between
// dropping the runner and publishing the verdict.  Holding the server
// lock holds finalize there; no reader may see the instance done
// without its verdict in that window.
func TestDoneCarriesVerdict(t *testing.T) {
	srv, inst, unblock := wedgedLaunch(t)
	srv.mu.Lock()
	unblock()
	// The runner is set by start and dropped by finalize's first step.
	for {
		inst.mu.Lock()
		started, r := !inst.started.IsZero(), inst.runner
		done, v := inst.done, inst.verdict
		inst.mu.Unlock()
		if done && v == nil {
			srv.mu.Unlock()
			t.Fatal("instance reads done with no verdict")
		}
		if started && r == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	srv.mu.Unlock()
	if v := waitDone(t, srv, inst.ID); v == nil || v.Fingerprint == "" {
		t.Fatalf("verdict %+v", v)
	}
}

// stallSync is a wal.File whose fsyncs wait for release, counting the
// ones that completed.
type stallSync struct {
	wal.File
	release chan struct{}
	synced  chan struct{} // closed after the first stalled fsync returns
}

func (f *stallSync) Sync() error {
	<-f.release
	err := f.File.Sync()
	select {
	case <-f.synced:
	default:
		close(f.synced)
	}
	return err
}

// TestCloseFinishedWaitsForKDone: closing an instance that has already
// finished acknowledges its verdict, so it must wait, as the close of
// an open instance does, until the instance's KDone is durable.  The
// shard log's fsync is stalled under a finished instance; the close
// may not return before that fsync does.
func TestCloseFinishedWaitsForKDone(t *testing.T) {
	srv, inst, unblock := wedgedLaunch(t)
	tl, err := srv.log("acme", inst.shard.name)
	if err != nil {
		t.Fatal(err)
	}
	stall := &stallSync{release: make(chan struct{}), synced: make(chan struct{})}
	tl.log.WrapFile(func(f wal.File) wal.File { stall.File = f; return stall })
	unblock()
	waitDone(t, srv, inst.ID)

	type result struct {
		v      *Verdict
		rerr   *Error
		synced bool
	}
	got := make(chan result, 1)
	go func() {
		v, rerr := srv.CloseInstance(inst.ID)
		synced := false
		select {
		case <-stall.synced:
			synced = true
		default:
		}
		got <- result{v, rerr, synced}
	}()
	select {
	case r := <-got:
		close(stall.release)
		t.Fatalf("close answered %+v, %v while the KDone's fsync was stalled", r.v, r.rerr)
	case <-time.After(100 * time.Millisecond):
	}
	close(stall.release)
	r := <-got
	if r.rerr != nil || r.v == nil {
		t.Fatalf("close: %+v, %v", r.v, r.rerr)
	}
	if !r.synced {
		t.Fatal("close returned before the stalled fsync completed")
	}
}
