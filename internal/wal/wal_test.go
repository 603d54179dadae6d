package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

func openT(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

// TestRoundTrip appends one record of each kind, reopens, and checks
// the recovery reflects them exactly.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	l.Append(Record{Kind: KIn, Site: "b", Peer: "a", Seq: 1, Clock: 7, Payload: []byte("m1")})
	l.Append(Record{Kind: KIn, Site: "b", Site2: "b", Payload: []byte("loc")})
	l.Append(Record{Kind: KFire, Site: "b", Sym: "e", At: 42})
	l.Append(Record{Kind: KOut, Site: "b", Site2: "c", Seq: 1, Payload: []byte("o1")})
	l.Append(Record{Kind: KOut, Site: "b", Site2: "c", Seq: 2, Payload: []byte("o2")})
	l.Append(Record{Kind: KAck, Site2: "c", Seq: 1})
	l.Append(Record{Kind: KReject, Site: "b", Sym: "~e", Note: "complement"})
	l.Close()

	l2 := openT(t, dir)
	defer l2.Close()
	rec := l2.Recovery()
	if rec.Empty() {
		t.Fatal("recovery empty")
	}
	if len(rec.Ins) != 2 || string(rec.Ins[0].Payload) != "m1" || string(rec.Ins[1].Payload) != "loc" {
		t.Fatalf("Ins = %+v", rec.Ins)
	}
	if rec.Ins[0].Clock != 7 || rec.Ins[0].Peer != "a" {
		t.Fatalf("in record fields lost: %+v", rec.Ins[0])
	}
	if rec.Watermarks["a"] != 1 {
		t.Fatalf("watermarks = %v", rec.Watermarks)
	}
	if rec.OutCounts[PairKey("b", "c")] != 2 || rec.OutCounts[PairKey("b", "b")] != 1 {
		t.Fatalf("out counts = %v", rec.OutCounts)
	}
	if len(rec.Fires) != 1 || rec.Fires[0] != 42 {
		t.Fatalf("fires = %v", rec.Fires)
	}
	if rec.Acked["c"] != 1 || rec.SentSeq["c"] != 2 {
		t.Fatalf("acked=%v sent=%v", rec.Acked, rec.SentSeq)
	}
	un := rec.Unacked["c"]
	if len(un) != 1 || un[0].Seq != 2 || string(un[0].Payload) != "o2" {
		t.Fatalf("unacked = %+v", un)
	}
}

// TestEmptyOpen opens a fresh directory and expects no recovery work.
func TestEmptyOpen(t *testing.T) {
	l := openT(t, t.TempDir())
	defer l.Close()
	if !l.Recovery().Empty() {
		t.Fatalf("fresh log not empty: %+v", l.Recovery())
	}
}

// TestTornTail corrupts the final record and checks Open truncates to
// the consistent prefix (and that the file is physically truncated so
// later appends extend a valid log).
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	l.Append(Record{Kind: KFire, Site: "a", Sym: "x", At: 1})
	l.Append(Record{Kind: KFire, Site: "a", Sym: "y", At: 2})
	l.Close()

	path := filepath.Join(dir, "wal-1.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the middle of the last record.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, dir)
	rec := l2.Recovery()
	if len(rec.Fires) != 1 || rec.Fires[0] != 1 {
		t.Fatalf("fires after torn tail = %v", rec.Fires)
	}
	l2.Append(Record{Kind: KFire, Site: "a", Sym: "z", At: 3})
	l2.Close()
	l3 := openT(t, dir)
	defer l3.Close()
	if got := l3.Recovery().Fires; !reflect.DeepEqual(got, []int64{1, 3}) {
		t.Fatalf("fires after append-over-truncation = %v", got)
	}
}

// TestCorruptMiddle flips a byte inside the first record: everything
// from there on is discarded — prefix-consistent, never partial.
func TestCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	l.Append(Record{Kind: KFire, Site: "a", Sym: "x", At: 1})
	l.Append(Record{Kind: KFire, Site: "a", Sym: "y", At: 2})
	l.Close()
	path := filepath.Join(dir, "wal-1.log")
	data, _ := os.ReadFile(path)
	data[10] ^= 0xff
	os.WriteFile(path, data, 0o644)
	l2 := openT(t, dir)
	defer l2.Close()
	if got := l2.Recovery().Fires; len(got) != 0 {
		t.Fatalf("fires after corrupt first record = %v", got)
	}
}

// TestWaitDurable checks the LSN contract: WaitDurable(lsn) returns
// only once the record is on disk (observable after reopen).
func TestWaitDurable(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	var lsns []uint64
	for i := 0; i < 100; i++ {
		lsns = append(lsns, l.Append(Record{Kind: KFire, Site: "a", Sym: "x", At: int64(i)}))
	}
	for i := 1; i < len(lsns); i++ {
		if lsns[i] != lsns[i-1]+1 {
			t.Fatalf("non-monotone lsns: %v", lsns)
		}
	}
	l.WaitDurable(lsns[len(lsns)-1])
	if l.Durable() < lsns[len(lsns)-1] {
		t.Fatalf("durable %d < last lsn %d", l.Durable(), lsns[len(lsns)-1])
	}
	// Durability must be visible to a scan of the file right now,
	// without Close.
	recs, err := scanFile(filepath.Join(dir, "wal-1.log"))
	if err != nil || len(recs) != 100 {
		t.Fatalf("scan after WaitDurable: %d records, err=%v", len(recs), err)
	}
	l.Close()
}

// TestConcurrentAppend hammers Append/WaitDurable from many
// goroutines; every record must survive a reopen.
func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	var wg sync.WaitGroup
	const G, N = 8, 50
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < N; i++ {
				lsn := l.Append(Record{Kind: KFire, Site: "a", Sym: "x", At: int64(g*N + i)})
				if i%10 == 0 {
					l.WaitDurable(lsn)
				}
			}
		}(g)
	}
	wg.Wait()
	l.Close()
	l2 := openT(t, dir)
	defer l2.Close()
	if got := len(l2.Recovery().Fires); got != G*N {
		t.Fatalf("recovered %d fires, want %d", got, G*N)
	}
}

// TestOnDurable checks the durable-advance callback fires.
func TestOnDurable(t *testing.T) {
	l := openT(t, t.TempDir())
	defer l.Close()
	ch := make(chan struct{}, 16)
	l.OnDurable(func() {
		select {
		case ch <- struct{}{}:
		default:
		}
	})
	lsn := l.Append(Record{Kind: KFire, Site: "a", Sym: "x", At: 1})
	l.WaitDurable(lsn)
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("onDurable callback never fired")
	}
}

// TestSnapshotRotation writes records, snapshots, appends a tail, and
// checks recovery = snapshot state + tail only, with the old
// generation deleted.
func TestSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	l.Append(Record{Kind: KFire, Site: "a", Sym: "x", At: 5})
	l.Append(Record{Kind: KOut, Site: "a", Site2: "b", Seq: 3, Payload: []byte("old")})
	l.Append(Record{Kind: KAck, Site2: "b", Seq: 3})
	meta := Meta{
		Clock:      9,
		Watermarks: map[string]uint64{"peer1": 4},
		Acked:      map[string]uint64{"b": 3},
		SentSeq:    map[string]uint64{"b": 3},
	}
	if err := l.Snapshot(meta, map[string][]byte{"a": []byte(`{"s":1}`)}); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	l.Append(Record{Kind: KFire, Site: "a", Sym: "y", At: 6})
	l.Close()

	if _, err := os.Stat(filepath.Join(dir, "wal-1.log")); !os.IsNotExist(err) {
		t.Fatalf("old generation not deleted: %v", err)
	}
	l2 := openT(t, dir)
	defer l2.Close()
	rec := l2.Recovery()
	if string(rec.SnapSites["a"]) != `{"s":1}` {
		t.Fatalf("snap sites = %v", rec.SnapSites)
	}
	if rec.Clock != 9 || rec.Watermarks["peer1"] != 4 || rec.Acked["b"] != 3 || rec.SentSeq["b"] != 3 {
		t.Fatalf("meta not restored: %+v", rec)
	}
	// Only the tail fire; the pre-snapshot one is compacted away.
	if !reflect.DeepEqual(rec.Fires, []int64{6}) {
		t.Fatalf("fires = %v", rec.Fires)
	}
	if len(rec.Unacked) != 0 {
		t.Fatalf("unacked across snapshot = %v", rec.Unacked)
	}
}

// TestCheckpointFold checks KCkpt metas fold as monotone maxima with
// tail records on top.
func TestCheckpointFold(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	ck := func(m Meta) {
		b, _ := json.Marshal(m)
		l.Append(Record{Kind: KCkpt, Payload: b})
	}
	ck(Meta{Clock: 5, Watermarks: map[string]uint64{"p": 2}})
	ck(Meta{Clock: 3, Watermarks: map[string]uint64{"p": 1, "q": 9}})
	l.Append(Record{Kind: KIn, Site: "b", Peer: "p", Seq: 7, Clock: 1, Payload: []byte("m")})
	l.Close()
	l2 := openT(t, dir)
	defer l2.Close()
	rec := l2.Recovery()
	if rec.Clock != 5 {
		t.Fatalf("clock = %d", rec.Clock)
	}
	if rec.Watermarks["p"] != 7 || rec.Watermarks["q"] != 9 {
		t.Fatalf("watermarks = %v", rec.Watermarks)
	}
}

// TestDoubleOpenDeterminism: opening the same directory twice (read
// only the first time) yields identical recovery.
func TestDoubleOpenDeterminism(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir)
	l.Append(Record{Kind: KIn, Site: "b", Peer: "a", Seq: 1, Clock: 3, Payload: []byte("m")})
	l.Append(Record{Kind: KFire, Site: "b", Sym: "e", At: 11})
	l.Close()
	l1 := openT(t, dir)
	r1 := *l1.Recovery()
	l1.Close()
	l2 := openT(t, dir)
	r2 := *l2.Recovery()
	l2.Close()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("recoveries differ:\n%+v\n%+v", r1, r2)
	}
}

// FuzzWALReplay feeds arbitrary bytes in as a log file: Open must
// never panic, must yield either an error or a recovery, and the scan
// must be prefix-consistent — re-opening after the implicit
// truncation reproduces exactly the same recovery (no divergent
// state from a corrupt tail).
func FuzzWALReplay(f *testing.F) {
	// Seed with a valid log and mutations of it.
	var valid []byte
	valid = appendRecord(valid, Record{Kind: KIn, Site: "b", Peer: "a", Seq: 1, Clock: 3, Payload: []byte("m1")})
	valid = appendRecord(valid, Record{Kind: KFire, Site: "b", Sym: "e", At: 17})
	valid = appendRecord(valid, Record{Kind: KOut, Site: "b", Site2: "c", Seq: 1, Payload: []byte("o")})
	valid = appendRecord(valid, Record{Kind: KAck, Site2: "c", Seq: 1})
	mj, _ := json.Marshal(Meta{Clock: 4, Watermarks: map[string]uint64{"a": 1}})
	valid = appendRecord(valid, Record{Kind: KCkpt, Payload: mj})
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 255, 1, 2, 3, 4})
	flip := bytes.Clone(valid)
	flip[9] ^= 0x40
	f.Add(flip)
	huge := bytes.Clone(valid)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0xff
	f.Add(huge)
	// Bytes actually written by the shared committer: two logs on one
	// committer appending concurrently, so the seed covers records laid
	// down in group-committed batches rather than one flush per append.
	cdir := f.TempDir()
	c := NewCommitter(CommitterOptions{})
	var cl [2]*Log
	for i := range cl {
		l, err := Open(filepath.Join(cdir, fmt.Sprint("l", i)), Options{Committer: c})
		if err != nil {
			f.Fatalf("Open with committer: %v", err)
		}
		cl[i] = l
	}
	var wg sync.WaitGroup
	for i, l := range cl {
		wg.Add(1)
		go func(i int, l *Log) {
			defer wg.Done()
			var last uint64
			for j := 0; j < 8; j++ {
				last = l.Append(Record{Kind: KFire, Site: "b", Sym: "e", At: int64(i*100 + j)})
				last = l.Append(Record{Kind: KIn, Site: "b", Peer: "a", Seq: uint64(j + 1), Clock: int64(j), Payload: []byte("m")})
			}
			l.WaitDurable(last)
		}(i, l)
	}
	wg.Wait()
	for _, l := range cl {
		l.Close()
	}
	c.Close()
	for i := range cl {
		data, err := os.ReadFile(filepath.Join(cdir, fmt.Sprint("l", i), "wal-1.log"))
		if err != nil {
			f.Fatalf("read committer seed: %v", err)
		}
		f.Add(data)
		f.Add(data[:len(data)-7])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal-1.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		l, err := Open(dir, Options{})
		if err != nil {
			return // clean error is acceptable
		}
		r1 := *l.Recovery()
		l.Close()
		// Open truncated the torn tail; a second scan must agree.
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("second open failed after truncation: %v", err)
		}
		r2 := *l2.Recovery()
		l2.Close()
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("recovery diverged across reopen:\n%+v\n%+v", r1, r2)
		}
		// The recovered prefix must itself be a valid record stream.
		recs, err := scanFile(path)
		if err != nil && !os.IsNotExist(err) {
			t.Fatalf("scan after truncation: %v", err)
		}
		if len(recs) != len(r1.Ins)+len(r1.Fires) && len(recs) < len(r1.Ins) {
			// Weak sanity only: kinds other than KIn/KFire also count.
			t.Fatalf("scan shrank below recovered records")
		}
	})
}
