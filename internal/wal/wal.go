// Package wal is a per-node durable write-ahead log for the netwire
// transport: an append-only record stream of inbound deliveries,
// outbound frames, acknowledgement watermarks, and verdict transitions
// (fires and rejects), framed with a length prefix and a CRC so a torn
// or corrupted tail truncates to a consistent prefix instead of
// poisoning recovery.
//
// The log is the source of truth for crash recovery.  The paper's
// synthesized guards make every verdict a deterministic function of
// the announcements a site has observed, so replaying the durable
// inbound stream — with occurrence indices pinned from the logged
// fire records and already-sent frames suppressed by count matching —
// reconstructs exactly the residuated guard state, the Lamport
// counter, and the at-least-once delivery watermarks the node held
// when it crashed.  Peers' go-back-N retransmissions then dedup
// cleanly across the restart boundary.
//
// Durability ordering is what makes the replay sound, and it is all
// prefix-based: records gain durability strictly in append (LSN)
// order, a delivery is processed only after its IN record is durable,
// an ACK is written only after the acknowledged INs are durable, and
// an outbound frame is transmitted only once its OUT record (and,
// transitively, the FIRE record of the occurrence it announces) is
// durable.  Consequently every message a peer may have seen, and
// every input that shaped local state, is in the durable prefix.
//
// Snapshots compact the log: at a quiescent point the caller provides
// per-site serialized actor state; the log writes a snapshot file,
// rotates to a fresh generation, and deletes the old one.  Recovery
// restores the snapshot first and replays only the tail.
//
// The log fails closed.  The first failed write or fsync poisons it:
// the durable LSN freezes where it stood, the file is never written or
// synced again, waiters and parked notifications are released with the
// error, and every later append is recorded nowhere — its LSN can
// never become durable, so waiting on it reports the same error.  A
// failed fsync leaves the page cache's state unknowable, so nothing
// appended from there on may be acknowledged.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Record kinds.
const (
	// KIn is one inbound delivery: a frame admitted from a peer
	// (Peer = sending node id, Seq = link sequence, Clock = frame
	// Lamport counter) or a local send (Peer empty, Site2 = from-site).
	// Site is the destination site; Payload is the actor wire encoding.
	KIn byte = iota + 1
	// KOut is one outbound frame enqueued on a link: Site = from-site,
	// Site2 = to-site, Seq = link sequence, Payload = wire encoding.
	KOut
	// KAck records acknowledgement progress for frames to Site2: every
	// outbound frame to that site with sequence ≤ Seq was acknowledged.
	KAck
	// KFire pins a fire verdict: Site's actor fired Sym at occurrence
	// index At.  Replay consumes these in order so recovered fires
	// reuse their original occurrence indices.
	KFire
	// KReject records a reject verdict (Site, Sym, Note = reason).
	// Rejects are re-derived deterministically by replay; the record is
	// diagnostic.
	KReject
	// KCkpt is an in-log checkpoint carrying Meta as JSON in Payload.
	// All Meta fields are monotone maxima, so folding every checkpoint
	// during recovery is sound without any log truncation.
	KCkpt
	// KSnapMeta (snapshot files only) carries Meta as JSON in Payload.
	KSnapMeta
	// KSnapSite (snapshot files only) carries one site's serialized
	// actor state: Site, Payload.
	KSnapSite
)

// Record is the single codec shared by every kind; unused fields stay
// zero and encode compactly.
type Record struct {
	Kind    byte
	Site    string
	Site2   string
	Peer    string
	Sym     string
	Note    string
	Seq     uint64
	Clock   int64
	At      int64
	Payload []byte
}

// Meta is the watermark state snapshots and checkpoints persist:
// everything the transport needs besides actor state, all monotone.
type Meta struct {
	// Clock is the node's Lamport counter (not shifted).
	Clock int64 `json:"clock"`
	// Watermarks: sending node id → highest in-order inbound sequence.
	Watermarks map[string]uint64 `json:"watermarks,omitempty"`
	// Acked: destination site → highest acknowledged outbound sequence.
	Acked map[string]uint64 `json:"acked,omitempty"`
	// SentSeq: destination site → highest assigned outbound sequence.
	SentSeq map[string]uint64 `json:"sentSeq,omitempty"`
}

// Options configure a Log.
type Options struct {
	// NoSync skips fsync after each flush (group commit still orders
	// writes; durability then depends on the OS).  For benchmarks.
	NoSync bool
	// Committer, when set, registers the log with a shared fsync
	// scheduler: all logs on one committer flush in coalesced rounds,
	// so N busy logs cost one round of overlapped fsyncs rather than N
	// independent flush loops.  Nil gives the log a private committer,
	// which Close stops.
	Committer *Committer
}

// maxRecord bounds one record body; larger frames are corruption.
const maxRecord = 16 << 20

// Recovery is the scanned state of a log at Open: the snapshot parts,
// the tail records grouped the way replay consumes them, and the
// folded watermark maxima.
type Recovery struct {
	// SnapSites: site → serialized actor state from the snapshot file.
	SnapSites map[string][]byte
	// Clock is the maximum Lamport counter recorded by any checkpoint
	// or snapshot meta (replay folds inbound clocks and fire pins on
	// top of it).
	Clock int64
	// Ins are the tail KIn records in log order — the replay stream.
	Ins []Record
	// OutCounts: "from\x00to" → number of logged sends (KOut plus
	// local KIn), the suppression counts for replayed sends.
	OutCounts map[string]int
	// Unacked: to-site → tail KOut records with Seq > Acked[to], in
	// ascending sequence order — the frames to restore onto links.
	Unacked map[string][]Record
	// Fires are the KFire occurrence indices in log order — the FIFO
	// pin queue for replayed fires.
	Fires []int64
	// Acked / Watermarks / SentSeq are folded maxima (tail records and
	// every checkpoint/snapshot meta).
	Acked      map[string]uint64
	Watermarks map[string]uint64
	SentSeq    map[string]uint64
	// Serve holds serving-layer records (KSpecReg, KAdmit, KEvent,
	// KDone) in log order; internal/serve folds them itself.
	Serve []Record
}

// Empty reports that recovery has nothing to restore.
func (r *Recovery) Empty() bool {
	return r == nil || (len(r.SnapSites) == 0 && len(r.Ins) == 0 && len(r.Fires) == 0 &&
		len(r.Unacked) == 0 && len(r.Acked) == 0 && len(r.Watermarks) == 0 && r.Clock == 0 &&
		len(r.Serve) == 0)
}

// PairKey builds the OutCounts key for a (from, to) site pair.
func PairKey(from, to string) string { return from + "\x00" + to }

// File is what the commit path needs of a log file: write the pending
// bytes, then make them durable.  *os.File implements it; WrapFile is
// the seam that puts a fault-injecting wrapper in between.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
}

// ErrClosed reports that the log closed before an LSN became durable.
var ErrClosed = errors.New("wal: log closed")

// Log is one node's write-ahead log: group-committed appends with an
// advancing durable LSN.
type Log struct {
	dir  string
	opts Options

	mu         sync.Mutex
	cond       *sync.Cond
	f          *os.File
	w          File  // the commit path's view of f (WrapFile)
	err        error // the first commit failure; sticky (poisoned)
	gen        uint64
	buf        []byte // pending encoded records
	spare      []byte // recycled flush buffer (capacity reuse)
	scratch    []byte // record-body encode buffer, reused per append
	lastLSN    uint64 // last assigned
	committing bool   // a flush of this log is in flight
	closed     bool
	committer  *Committer // nil once closed
	private    bool       // committer was created by Open; Close stops it
	notif      notifyHeap // durability callbacks parked by LSN

	durable   atomic.Uint64
	onDurable atomic.Value // func()
	syncs     atomic.Int64
	rate      atomic.Uint64 // float64 bits: EWMA committed records/sec

	rec *Recovery
}

// notifyEntry parks one callback until the durable LSN reaches lsn.
type notifyEntry struct {
	lsn uint64
	fn  func(error)
}

// notifyHeap is a min-heap on lsn (hand-rolled: the hot path pushes
// mostly in LSN order, so sift-up is O(1) amortized).
type notifyHeap []notifyEntry

func (h *notifyHeap) push(e notifyEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].lsn <= (*h)[i].lsn {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *notifyHeap) pop() notifyEntry {
	top := (*h)[0]
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	(*h)[n] = notifyEntry{}
	*h = (*h)[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && (*h)[l].lsn < (*h)[s].lsn {
			s = l
		}
		if r < n && (*h)[r].lsn < (*h)[s].lsn {
			s = r
		}
		if s == i {
			break
		}
		(*h)[i], (*h)[s] = (*h)[s], (*h)[i]
		i = s
	}
	return top
}

// Open opens (creating if needed) the log in dir, scanning any
// existing generation into a Recovery.  A torn or corrupt tail is
// truncated at the first bad frame.
func Open(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts}
	l.cond = sync.NewCond(&l.mu)
	gen, err := latestGen(dir)
	if err != nil {
		return nil, err
	}
	l.gen = gen
	rec := &Recovery{
		SnapSites: map[string][]byte{}, OutCounts: map[string]int{},
		Unacked: map[string][]Record{}, Acked: map[string]uint64{},
		Watermarks: map[string]uint64{}, SentSeq: map[string]uint64{},
	}
	if snap, err := scanFile(l.snapPath(gen)); err == nil {
		for _, r := range snap {
			switch r.Kind {
			case KSnapMeta:
				rec.foldMeta(r.Payload)
			case KSnapSite:
				rec.SnapSites[r.Site] = r.Payload
			}
		}
	}
	logPath := l.logPath(gen)
	tail, scanErr := scanFileTruncate(logPath)
	if scanErr != nil {
		return nil, scanErr
	}
	for _, r := range tail {
		rec.fold(r)
	}
	for to, acked := range rec.Acked {
		kept := rec.Unacked[to][:0]
		for _, r := range rec.Unacked[to] {
			if r.Seq > acked {
				kept = append(kept, r)
			}
		}
		if len(kept) == 0 {
			delete(rec.Unacked, to)
		} else {
			rec.Unacked[to] = kept
		}
	}
	l.rec = rec
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.f, l.w = f, f
	l.committer = opts.Committer
	if l.committer == nil {
		l.committer, l.private = NewCommitter(CommitterOptions{}), true
	}
	if !l.committer.register(l) {
		f.Close()
		return nil, fmt.Errorf("wal: committer closed")
	}
	return l, nil
}

// fold incorporates one tail record into the recovery state.
func (rec *Recovery) fold(r Record) {
	switch r.Kind {
	case KIn:
		rec.Ins = append(rec.Ins, r)
		if r.Peer != "" {
			if r.Seq > rec.Watermarks[r.Peer] {
				rec.Watermarks[r.Peer] = r.Seq
			}
		} else if r.Site2 != "" {
			rec.OutCounts[PairKey(r.Site2, r.Site)]++
		}
	case KOut:
		rec.OutCounts[PairKey(r.Site, r.Site2)]++
		rec.Unacked[r.Site2] = append(rec.Unacked[r.Site2], r)
		if r.Seq > rec.SentSeq[r.Site2] {
			rec.SentSeq[r.Site2] = r.Seq
		}
	case KAck:
		if r.Seq > rec.Acked[r.Site2] {
			rec.Acked[r.Site2] = r.Seq
		}
	case KFire:
		rec.Fires = append(rec.Fires, r.At)
	case KCkpt:
		rec.foldMeta(r.Payload)
	case KSpecReg, KAdmit, KEvent, KDone:
		rec.Serve = append(rec.Serve, r)
	}
}

func (rec *Recovery) foldMeta(payload []byte) {
	var m Meta
	if json.Unmarshal(payload, &m) != nil {
		return
	}
	if m.Clock > rec.Clock {
		rec.Clock = m.Clock
	}
	foldMax := func(dst map[string]uint64, src map[string]uint64) {
		for k, v := range src {
			if v > dst[k] {
				dst[k] = v
			}
		}
	}
	foldMax(rec.Watermarks, m.Watermarks)
	foldMax(rec.Acked, m.Acked)
	foldMax(rec.SentSeq, m.SentSeq)
}

// Recovery returns the state scanned at Open.  The caller replays it
// before appending new records.
func (l *Log) Recovery() *Recovery { return l.rec }

// Append encodes one record, assigns its LSN, and schedules the
// flush.  It never blocks on I/O; callers that need durability call
// WaitDurable with the returned LSN or park a Notify callback on it.
// The encode path reuses the log's scratch and flush buffers, so a
// steady-state append allocates nothing (gated by
// TestWALAppendZeroAlloc in make benchsmoke).  On a poisoned log
// Append fails: it records nothing and returns an LSN that will never
// be durable, so WaitDurable and Notify on it report the poison (Err).
func (l *Log) Append(r Record) uint64 {
	l.mu.Lock()
	if l.err != nil {
		l.lastLSN++
		lsn := l.lastLSN
		l.mu.Unlock()
		return lsn
	}
	if l.buf == nil && l.spare != nil {
		l.buf, l.spare = l.spare, nil
	}
	l.scratch = encodeBody(l.scratch[:0], r)
	l.buf = appendFramed(l.buf, l.scratch)
	l.lastLSN++
	lsn := l.lastLSN
	c := l.committer
	l.mu.Unlock()
	mRecords.Inc()
	mPending.Add(1)
	if c != nil {
		c.nudge(l)
	}
	return lsn
}

// Durable returns the highest LSN known durable.
func (l *Log) Durable() uint64 { return l.durable.Load() }

// Syncs counts completed fsync batches — the group-commit width story
// in one number (records appended / Syncs() = average batch size).
func (l *Log) Syncs() int64 { return l.syncs.Load() }

// CommitRate is a decaying estimate of this log's recent commit
// throughput in records/sec (0 until the first commit).  Admission
// control divides fsync lag by it to size Retry-After honestly.
func (l *Log) CommitRate() float64 {
	return math.Float64frombits(l.rate.Load())
}

// WaitDurable blocks until the given LSN is durable and returns nil.
// It returns the poison error instead when the log failed before the
// LSN became durable, and ErrClosed when the log closed first (Close
// flushes everything, so that only happens to a failing log).
func (l *Log) WaitDurable(lsn uint64) error {
	if l.durable.Load() >= lsn {
		return nil
	}
	start := time.Now()
	l.mu.Lock()
	for l.durable.Load() < lsn && !l.closed && l.err == nil {
		l.cond.Wait()
	}
	err := l.pastDurable(lsn)
	l.mu.Unlock()
	mParkUS.Observe(time.Since(start).Microseconds())
	return err
}

// pastDurable is the outcome of a wait on lsn that has ended: nil when
// it is durable, else why it never will be.  Called with l.mu held.
func (l *Log) pastDurable(lsn uint64) error {
	switch {
	case l.durable.Load() >= lsn:
		return nil
	case l.err != nil:
		return l.err
	default:
		return ErrClosed
	}
}

// Notify parks fn until the durable LSN reaches lsn, then runs it with
// nil on the commit goroutine (keep it short).  An already-durable LSN
// runs fn inline before Notify returns.  When the log fails first, fn
// runs with the poison error instead — no callback fires as durable
// past the failed LSN — and one parked when the log is already failed
// or closed runs inline with the error.  No callback is ever dropped.
func (l *Log) Notify(lsn uint64, fn func(error)) {
	l.mu.Lock()
	if l.durable.Load() >= lsn || l.closed || l.err != nil {
		err := l.pastDurable(lsn)
		l.mu.Unlock()
		fn(err)
		return
	}
	l.notif.push(notifyEntry{lsn: lsn, fn: fn})
	l.mu.Unlock()
}

// Sync flushes and (unless NoSync) fsyncs everything appended so far,
// returning the poison error if the log failed first.
func (l *Log) Sync() error {
	l.mu.Lock()
	lsn := l.lastLSN
	l.mu.Unlock()
	return l.WaitDurable(lsn)
}

// WrapFile puts wrap between the commit path and the current log
// file, until Snapshot rotates to a new one: the seam fault injection
// (a failing write, EIO on the Nth fsync) plugs into.
func (l *Log) WrapFile(wrap func(File) File) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w = wrap(l.f)
}

// OnDurable registers a callback invoked (from the commit goroutine)
// whenever the durable LSN advances.
func (l *Log) OnDurable(fn func()) { l.onDurable.Store(fn) }

// takePending claims the pending buffer for one commit: it marks the
// log committing (Snapshot waits for the flush to land before rotating
// the file) and hands back the file, the bytes, and the LSN the flush
// will make durable.  Only the committer's loop calls it, one round at
// a time, so flushes of one log never overlap.  A poisoned log has
// nothing to take: its file is never written or synced again.
func (l *Log) takePending() (f File, data []byte, lsn uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) == 0 || l.err != nil {
		return nil, nil, 0, false
	}
	l.committing = true
	data = l.buf
	l.buf = nil
	return l.w, data, l.lastLSN, true
}

// finishCommit ends one commit of data up to lsn.  On success it
// advances the durable LSN, recycles the flush buffer, wakes parked
// waiters and fires the notifications the advance released.  On
// failure it poisons the log: the durable LSN stays, the pending tail
// is dropped, and every waiter and parked notification is released
// with the error.
func (l *Log) finishCommit(data []byte, lsn uint64, synced bool, err error) {
	prev := l.durable.Load()
	var fns []func(error)
	l.mu.Lock()
	l.committing = false
	if l.spare == nil || cap(data) > cap(l.spare) {
		l.spare = data[:0]
	}
	if err != nil {
		l.err = fmt.Errorf("wal: commit of LSNs %d..%d: %w", prev+1, lsn, err)
		err = l.err
		l.buf = nil
		for len(l.notif) > 0 {
			fns = append(fns, l.notif.pop().fn)
		}
		lost := l.lastLSN - prev
		l.cond.Broadcast()
		l.mu.Unlock()
		mPending.Add(-int64(lost))
		for _, fn := range fns {
			fn(err)
		}
		return
	}
	for {
		cur := l.durable.Load()
		if lsn <= cur || l.durable.CompareAndSwap(cur, lsn) {
			break
		}
	}
	durable := l.durable.Load()
	for len(l.notif) > 0 && l.notif[0].lsn <= durable {
		fns = append(fns, l.notif.pop().fn)
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	if synced {
		l.syncs.Add(1)
		mSyncs.Inc()
	}
	if lsn > prev {
		mPending.Add(-int64(lsn - prev))
		mWidth.Observe(int64(lsn - prev))
	}
	for _, fn := range fns {
		fn(nil)
	}
	if fn, ok := l.onDurable.Load().(func()); ok && fn != nil {
		fn()
	}
}

// observeRate folds one commit of n records over dt into the decaying
// records/sec estimate.
func (l *Log) observeRate(n int64, dt time.Duration) {
	if n <= 0 {
		return
	}
	if dt < time.Microsecond {
		dt = time.Microsecond
	}
	inst := float64(n) / dt.Seconds()
	for {
		old := l.rate.Load()
		prev := math.Float64frombits(old)
		next := inst
		if prev > 0 {
			next = 0.7*prev + 0.3*inst
		}
		if l.rate.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Snapshot rotates the log: it writes a new snapshot file holding
// meta plus the per-site states, switches appends to a fresh empty
// generation, and deletes the old generation.  The caller must have
// quiesced the node — every prior append settled, no deliveries in
// flight — so the discarded log prefix is fully captured by the
// snapshot.
func (l *Log) Snapshot(meta Meta, sites map[string][]byte) error {
	if err := l.Sync(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.committing {
		// A flush claimed the old generation's file; let it land before
		// the rotation closes that file under it.
		l.cond.Wait()
	}
	if l.closed {
		return fmt.Errorf("wal: closed")
	}
	next := l.gen + 1
	var buf []byte
	mj, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	buf = appendRecord(buf, Record{Kind: KSnapMeta, Payload: mj})
	names := make([]string, 0, len(sites))
	for s := range sites {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		buf = appendRecord(buf, Record{Kind: KSnapSite, Site: s, Payload: sites[s]})
	}
	tmp := filepath.Join(l.dir, "snap.tmp")
	if err := writeFileSync(tmp, buf); err != nil {
		return err
	}
	if err := os.Rename(tmp, l.snapPath(next)); err != nil {
		return err
	}
	nf, err := os.OpenFile(l.logPath(next), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	old, oldGen := l.f, l.gen
	l.f, l.w, l.gen = nf, nf, next
	old.Close()
	os.Remove(l.logPath(oldGen))
	os.Remove(l.snapPath(oldGen))
	return nil
}

// Close flushes, fsyncs, and closes the log, then detaches it from its
// committer (stopping a private one) and fires every still-parked
// notification (with ErrClosed: the final flush made everything
// durable unless the log failed, and a failure already released them).
func (l *Log) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	lsn := l.lastLSN
	l.mu.Unlock()
	// A failure here has already poisoned the log and released every
	// waiter and parked notification with the error.
	_ = l.WaitDurable(lsn)
	l.mu.Lock()
	l.closed = true
	var fns []func(error)
	for len(l.notif) > 0 {
		fns = append(fns, l.notif.pop().fn)
	}
	l.cond.Broadcast()
	f := l.f
	c := l.committer
	l.committer = nil
	l.mu.Unlock()
	c.unregister(l)
	if l.private {
		c.Close()
	}
	for _, fn := range fns {
		fn(ErrClosed)
	}
	if f != nil {
		f.Close()
	}
}

func (l *Log) logPath(gen uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("wal-%d.log", gen))
}

func (l *Log) snapPath(gen uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("snap-%d", gen))
}

// latestGen finds the highest generation present (log or snapshot
// file); 1 when the directory is empty.
func latestGen(dir string) (uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	best := uint64(1)
	for _, e := range ents {
		name := e.Name()
		var digits string
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			digits = strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
		case strings.HasPrefix(name, "snap-"):
			digits = strings.TrimPrefix(name, "snap-")
		default:
			continue
		}
		if g, err := strconv.ParseUint(digits, 10, 64); err == nil && g > best {
			best = g
		}
	}
	return best, nil
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- record framing ---------------------------------------------------

// appendRecord frames one record: [u32 body length][u32 CRC32(body)]
// [body], body = kind byte plus length-prefixed strings, varints, and
// the payload.
func appendRecord(dst []byte, r Record) []byte {
	return appendFramed(dst, encodeBody(make([]byte, 0, 32+len(r.Payload)), r))
}

// encodeBody appends the record body (no frame) to dst.  The append
// hot path reuses the log's scratch buffer here, so the steady state
// allocates nothing.
func encodeBody(dst []byte, r Record) []byte {
	dst = append(dst, r.Kind)
	dst = appendString(dst, r.Site)
	dst = appendString(dst, r.Site2)
	dst = appendString(dst, r.Peer)
	dst = appendString(dst, r.Sym)
	dst = appendString(dst, r.Note)
	dst = binary.AppendUvarint(dst, r.Seq)
	dst = binary.AppendVarint(dst, r.Clock)
	dst = binary.AppendVarint(dst, r.At)
	dst = binary.AppendUvarint(dst, uint64(len(r.Payload)))
	return append(dst, r.Payload...)
}

// appendFramed appends the length+CRC frame header and the body.
func appendFramed(dst []byte, body []byte) []byte {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(body))
	dst = append(dst, hdr[:]...)
	return append(dst, body...)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// parseRecord decodes one framed record from data, returning the
// record and the unconsumed remainder.  Any inconsistency — short
// frame, CRC mismatch, malformed body — is an error; the caller
// treats it as the end of the valid prefix.
func parseRecord(data []byte) (Record, []byte, error) {
	var r Record
	if len(data) < 8 {
		return r, nil, fmt.Errorf("wal: short frame header")
	}
	size := binary.BigEndian.Uint32(data[0:4])
	crc := binary.BigEndian.Uint32(data[4:8])
	if size < 1 || size > maxRecord {
		return r, nil, fmt.Errorf("wal: frame size %d out of range", size)
	}
	if uint64(len(data)-8) < uint64(size) {
		return r, nil, fmt.Errorf("wal: torn frame")
	}
	body := data[8 : 8+size]
	if crc32.ChecksumIEEE(body) != crc {
		return r, nil, fmt.Errorf("wal: CRC mismatch")
	}
	rest := data[8+size:]
	pos := 0
	r.Kind = body[pos]
	pos++
	var err error
	str := func() string {
		if err != nil {
			return ""
		}
		ln, n := binary.Uvarint(body[pos:])
		if n <= 0 || ln > maxRecord || pos+n+int(ln) > len(body) {
			err = fmt.Errorf("wal: bad string")
			return ""
		}
		s := string(body[pos+n : pos+n+int(ln)])
		pos += n + int(ln)
		return s
	}
	r.Site = str()
	r.Site2 = str()
	r.Peer = str()
	r.Sym = str()
	r.Note = str()
	if err != nil {
		return r, nil, err
	}
	uv := func() uint64 {
		if err != nil {
			return 0
		}
		v, n := binary.Uvarint(body[pos:])
		if n <= 0 {
			err = fmt.Errorf("wal: bad uvarint")
			return 0
		}
		pos += n
		return v
	}
	sv := func() int64 {
		if err != nil {
			return 0
		}
		v, n := binary.Varint(body[pos:])
		if n <= 0 {
			err = fmt.Errorf("wal: bad varint")
			return 0
		}
		pos += n
		return v
	}
	r.Seq = uv()
	r.Clock = sv()
	r.At = sv()
	pl := uv()
	if err != nil {
		return r, nil, err
	}
	if pl > maxRecord || pos+int(pl) != len(body) {
		return r, nil, fmt.Errorf("wal: bad payload length")
	}
	if pl > 0 {
		r.Payload = append([]byte(nil), body[pos:pos+int(pl)]...)
	}
	return r, rest, nil
}

// scanFile reads every valid record of a file; a bad tail is ignored.
func scanFile(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	recs, _ := scanBytes(data)
	return recs, nil
}

// scanBytes parses records until the first invalid frame, returning
// the valid prefix and its byte length.
func scanBytes(data []byte) ([]Record, int64) {
	var out []Record
	rest := data
	for len(rest) > 0 {
		r, next, err := parseRecord(rest)
		if err != nil {
			break
		}
		out = append(out, r)
		rest = next
	}
	return out, int64(len(data) - len(rest))
}

// scanFileTruncate reads a log file and physically truncates any
// invalid tail, so subsequent appends extend the consistent prefix.
func scanFileTruncate(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	recs, good := scanBytes(data)
	if good < int64(len(data)) {
		if err := os.Truncate(path, good); err != nil {
			return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	return recs, nil
}
