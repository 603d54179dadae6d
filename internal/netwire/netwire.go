// Package netwire is a real TCP transport for the actor protocol: the
// same actor code (actor.Deliver) that runs on the deterministic
// simulator and on the in-process goroutine transport here runs across
// OS processes over sockets.
//
// The transport provides what honest distribution requires and the
// in-process transports get for free:
//
//   - a compact length-prefixed binary framing over the actor wire
//     codec (internal/actor/wirecodec.go), version-checked on both the
//     frame and payload layer; every frame leaves in one write from a
//     per-connection buffer, and frames are read through a
//     per-connection bufio.Reader into a reused body buffer, so a burst
//     of queued frames costs one read and no allocation;
//   - per-link outbound queues with connection reuse, reconnect with
//     exponential backoff plus jitter, and bounded write deadlines;
//   - at-least-once delivery: every DATA record carries a per-link
//     sequence number and is retained by the sender until the
//     receiver's cumulative acknowledgement covers it; timeouts and
//     reconnects retransmit (go-back-N), and the receiver deduplicates
//     by sequence number, so retries never double-announce an event —
//     announcements are idempotent in the paper's knowledge model, but
//     holds, promises, and decisions are not;
//   - a Lamport-style occurrence clock: NextOccurrence returns
//     (counter << 10) | nodeIndex, frames carry the sender's counter,
//     and receivers fold it in before delivering, so occurrence
//     indices form a total order consistent with causality — the
//     "consistent view of the temporal order" the paper's execution
//     mechanism needs, without a central sequencer;
//   - seeded fault injection (simnet.FaultPlan, shared with the
//     simulator): outbound frames can be dropped, duplicated, delayed,
//     reordered, or partitioned, and the reliability layer must — and
//     does — mask all of it.  The differential chaos tests run the
//     same workflows and plans against the simnet oracle.
//
// One Node is one transport endpoint (normally one OS process).  A
// node hosts any number of sites; each site's handler runs on a single
// goroutine, which is the serialization the actor protocol requires.
package netwire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/obs"
	"repro/internal/quiesce"
	"repro/internal/simnet"
	"repro/internal/symtab"
	"repro/internal/wal"
)

// Frame layer constants.
const (
	frameVersion byte = 1

	frameHello byte = 1
	frameAck   byte = 3
	// frameBatch is the one data frame: a count of 1..maxBatchFrames
	// DATA records.  The announcement fan-out of a pipelined run writes
	// many tiny records per link back-to-back, and grouping them
	// collapses the per-frame syscall and ack traffic; a lone record is
	// a batch of one.  A volatile receiver acknowledges once per drained
	// read burst, not once per frame.  A transmission is faulted as a
	// unit (one FaultPlan.VerdictFor draw); records keep their own
	// sequence numbers, so receiver dedup and in-order release are
	// untouched by how records happen to be grouped.
	frameBatch byte = 4

	// maxFrame bounds a frame body; anything larger is a protocol
	// violation and kills the connection.
	maxFrame = 1 << 20

	// maxBatchFrames / maxBatchBytes bound one batch: the flush
	// threshold of the coalescing loop.  A session that wakes to fewer
	// than maxBatchFrames ready records yields once, then flushes all
	// that has accumulated (batching never sleeps), so these only cap
	// the burst case.
	maxBatchFrames = 64
	maxBatchBytes  = 256 << 10

	// nodeBits is the width of the node-index field inside occurrence
	// indices: at = lamport<<nodeBits | index.
	nodeBits = 10
	// MaxNodes is the number of distinct node indices.
	MaxNodes = 1 << nodeBits
)

// Config describes one transport endpoint.
type Config struct {
	// ID uniquely names this node in the mesh (dedup state is keyed by
	// it, so it must be stable across reconnects).
	ID string
	// ListenAddr is the TCP address to listen on (e.g. "127.0.0.1:0").
	ListenAddr string
	// NodeIndex breaks occurrence-index ties; it must be unique per
	// node and < MaxNodes.
	NodeIndex int
	// Fault, when set, is applied to outbound data frames.
	Fault *simnet.FaultPlan
	// RetryMin/RetryMax bound the reconnect backoff and the
	// retransmission timeout (defaults 15ms / 500ms).
	RetryMin, RetryMax time.Duration
	// WAL, when set, makes the node durable: inbound deliveries,
	// outbound frames, acknowledgement watermarks, and verdict
	// transitions are logged, deliveries are processed only once their
	// log record is on disk, and outbound frames are withheld until
	// their records (and the fire records they announce) are durable.
	// The node owns the log and closes it on Close.
	WAL *wal.Log
	// CheckpointEvery, when positive in WAL mode, appends a periodic
	// watermark checkpoint record (Lamport clock, per-peer delivery
	// watermarks, per-link ack progress) so recovery of a long run
	// starts from recent maxima instead of zero.  Checkpoints are
	// monotone folds — no truncation, unlike snapshots.
	CheckpointEvery time.Duration
	// Logf, when set, receives transport diagnostics.
	Logf func(format string, args ...any)
	// Debug, when set, serves HTTP on the node's own listener: inbound
	// connections whose first byte is not a frame length prefix are
	// handed to this handler (cmd/wfnet mounts /debug/metrics and
	// net/http/pprof here).  Frame traffic is unaffected — a
	// legitimate frame's first length byte is always zero because
	// maxFrame < 1<<24, and HTTP methods start with a nonzero ASCII
	// byte.
	Debug http.Handler
}

func (c *Config) retryMin() time.Duration {
	if c.RetryMin > 0 {
		return c.RetryMin
	}
	return 15 * time.Millisecond
}

func (c *Config) retryMax() time.Duration {
	if c.RetryMax > 0 {
		return c.RetryMax
	}
	return 500 * time.Millisecond
}

// writeTimeout bounds each frame write.
const writeTimeout = 5 * time.Second

// Node is one transport endpoint; it implements actor.Net for the
// actors of its hosted sites.
type Node struct {
	cfg   Config
	start time.Time
	clock atomic.Int64 // Lamport occurrence counter
	// pend counts this node's in-flight work: queued or running local
	// deliveries plus unacknowledged outbound frames.  A standalone
	// node owns it; every node of a Mesh counts into the mesh's one
	// tracker instead, so a single read of it covers the whole mesh.
	pend *quiesce.NotifyTracker
	// syms resolves the symbol ids of decoded payloads (UseSymbols);
	// nil leaves them unset.
	syms atomic.Pointer[symtab.Table]

	lis net.Listener

	mu     sync.Mutex
	peers  map[simnet.SiteID]string // site → node address, fixed at Start
	sites  map[simnet.SiteID]*inbox
	links  map[string]*link     // by remote address
	recvs  map[string]*recvPeer // by remote node id
	closed bool

	// wal is Config.WAL (nil = volatile node); replay is non-nil only
	// while Recover is replaying the log single-threadedly; restore is
	// the staged link/watermark state Start applies; snapProvider
	// serializes one hosted site's settled state for Snapshot.
	wal          *wal.Log
	replay       atomic.Pointer[replayState]
	restore      *restoreState
	snapProvider func(simnet.SiteID) ([]byte, error)
	ckptStop     chan struct{}

	// Delivered counts DATA frames handed to site handlers; Deduped
	// counts suppressed duplicates (metrics for the chaos tests).
	delivered atomic.Int64
	deduped   atomic.Int64
	// batches / batchedFrames count outbound coalescing: transmissions
	// of two or more records and the records they carried.
	batches       atomic.Int64
	batchedFrames atomic.Int64
}

// NewNode creates an unstarted node.
func NewNode(cfg Config) *Node {
	if cfg.NodeIndex < 0 || cfg.NodeIndex >= MaxNodes {
		panic(fmt.Sprintf("netwire: node index %d out of range", cfg.NodeIndex))
	}
	n := &Node{
		cfg:   cfg,
		start: time.Now(),
		pend:  new(quiesce.NotifyTracker),
		sites: map[simnet.SiteID]*inbox{},
		links: map[string]*link{},
		recvs: map[string]*recvPeer{},
		wal:   cfg.WAL,
	}
	if n.wal != nil {
		// Durable-LSN progress unblocks link transmission (frames are
		// withheld until their log records are on disk).
		n.wal.OnDurable(n.wakeLinks)
	}
	return n
}

// wakeLinks signals every link's session goroutine to re-scan its
// queue (durable LSN advanced, so withheld frames may now transmit).
func (n *Node) wakeLinks() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, l := range n.links {
		l.signal() // never blocks
	}
}

// Listen binds the node's listener and returns the concrete address
// (useful with ":0").  Call before Start.
func (n *Node) Listen() (string, error) {
	lis, err := net.Listen("tcp", n.cfg.ListenAddr)
	if err != nil {
		return "", fmt.Errorf("netwire: %w", err)
	}
	n.lis = lis
	return lis.Addr().String(), nil
}

// Register hosts a site on this node.  The handler runs on a single
// goroutine per site; it receives this node as the actor.Net to send
// replies on.  All sites must be registered before messages flow.
func (n *Node) Register(site simnet.SiteID, h func(net actor.Net, payload any)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.sites[site]; dup {
		panic(fmt.Sprintf("netwire: duplicate site %q", site))
	}
	ib := &inbox{node: n, site: site, handler: func(p any) { h(n, p) }}
	ib.cond = sync.NewCond(&ib.mu)
	n.sites[site] = ib
	go ib.loop()
}

// Start fixes the site→address routing table and begins accepting
// connections.  Every remote site a hosted actor may address must
// appear in peers.
func (n *Node) Start(peers map[simnet.SiteID]string) {
	n.mu.Lock()
	n.peers = peers
	n.mu.Unlock()
	if n.lis == nil {
		panic("netwire: Start before Listen")
	}
	deferred := n.applyRestore(peers)
	go n.acceptLoop()
	if n.wal != nil && n.cfg.CheckpointEvery > 0 {
		n.ckptStop = make(chan struct{})
		go n.checkpointLoop()
	}
	// Sends regenerated during replay but absent from the log (their
	// records were lost in the crash) go out as fresh sends now that
	// the transport is live.
	for _, d := range deferred {
		n.Send(d.from, d.to, d.payload)
	}
}

// Now returns wall microseconds since the node started — the
// transport's clock for latency metrics and fault-plan partition
// windows.
func (n *Node) Now() simnet.Time {
	return simnet.Time(time.Since(n.start).Microseconds())
}

// NextOccurrence issues the next occurrence index: the bumped Lamport
// counter shifted over the node index.  Indices are unique across the
// mesh and totally ordered consistently with causality, because every
// frame carries the sender's counter and receivers fold it in before
// delivery.
func (n *Node) NextOccurrence() int64 {
	if r := n.replay.Load(); r != nil {
		if at, ok := r.popFire(); ok {
			// Reuse the logged occurrence index and fold its counter so
			// the replayed clock evolution matches the original.
			n.observeClock(at >> nodeBits)
			return at
		}
		// The fire's record was lost in the crash: draw fresh.  Mark the
		// pin queue exhausted so JournalFire logs this fire — the next
		// crash must replay it from its own record.
		r.pinsExhausted = true
	}
	return n.clock.Add(1)<<nodeBits | int64(n.cfg.NodeIndex)
}

// JournalFire logs a fire verdict (actor.Journal).  The actor calls it
// before handing the resulting announcements to Send, so announcement
// records always sit later in the log — transmission gating on their
// LSN transitively makes the fire durable before any peer can see it.
func (n *Node) JournalFire(site simnet.SiteID, sym string, at int64) {
	if n.wal == nil {
		return
	}
	if r := n.replay.Load(); r != nil && !r.pinsExhausted {
		return // replayed fire: its record is already in the log
	}
	n.wal.Append(wal.Record{Kind: wal.KFire, Site: string(site), Sym: sym, At: at})
}

// JournalReject logs a reject verdict (actor.Journal).  Rejects are
// re-derived deterministically by replay; the record is diagnostic.
func (n *Node) JournalReject(site simnet.SiteID, sym string, note string) {
	if n.wal == nil || n.replay.Load() != nil {
		return
	}
	n.wal.Append(wal.Record{Kind: wal.KReject, Site: string(site), Sym: sym, Note: note})
}

// Clock reads the current occurrence bound without advancing the
// counter.  The node-index bits are saturated so the result is an
// upper bound on every occurrence issued anywhere at the current
// counter value — a trace record stamped with it can never appear to
// precede an occurrence it already knows about just because of a
// node-index tiebreak.
func (n *Node) Clock() int64 {
	return n.clock.Load()<<nodeBits | int64(MaxNodes-1)
}

// observeClock folds a received Lamport counter into the local one.
func (n *Node) observeClock(c int64) {
	for {
		cur := n.clock.Load()
		if c <= cur || n.clock.CompareAndSwap(cur, c) {
			return
		}
	}
}

// Send delivers a payload to a site: directly into the inbox for
// hosted sites, over the site's link otherwise.  It implements
// actor.Net; remote payloads must be actor protocol messages.
func (n *Node) Send(from, to simnet.SiteID, payload any) {
	if r := n.replay.Load(); r != nil {
		// Log replay: suppress sends the log already accounts for,
		// defer the rest (lost in the crash) until the node is live.
		r.send(from, to, payload)
		return
	}
	n.mu.Lock()
	ib := n.sites[to]
	n.mu.Unlock()
	if ib != nil {
		var lsn uint64
		var clock int64
		if n.wal != nil {
			// A local delivery is durable input like any other: log it
			// (Site2 marks the local origin for replay send-matching)
			// and let the inbox gate the handler on its durability.
			bp := actor.GetEncodeBuf()
			enc, err := actor.AppendPayload((*bp)[:0], payload)
			if err != nil {
				actor.PutEncodeBuf(bp)
				panic(fmt.Sprintf("netwire: %v", err))
			}
			lsn = n.wal.Append(wal.Record{
				Kind: wal.KIn, Site: string(to), Site2: string(from), Payload: enc,
			})
			*bp = enc
			actor.PutEncodeBuf(bp)
		}
		n.pend.Add(1)
		ib.enqueue(inItem{payload: payload, clock: clock, lsn: lsn})
		return
	}
	addr, ok := n.peers[to]
	if !ok {
		panic(fmt.Sprintf("netwire: message to unknown site %q", to))
	}
	// Encode into a pooled buffer; the link returns it to the pool once
	// the frame is acknowledged and pruned, making the steady-state
	// encode path allocation-free.
	bp := actor.GetEncodeBuf()
	enc, err := actor.AppendPayload((*bp)[:0], payload)
	if err != nil {
		actor.PutEncodeBuf(bp)
		panic(fmt.Sprintf("netwire: %v", err))
	}
	*bp = enc
	n.pend.Add(1)
	n.link(addr).enqueue(from, to, enc, bp)
}

// WaitIdle blocks until this node's tracker reads zero, or the timeout
// elapses.  A peer may still owe the node traffic: for nodes built
// apart, compare their IdleReports with Quiescent.
func (n *Node) WaitIdle(timeout time.Duration) bool {
	return n.pend.WaitIdle(timeout)
}

// IdleNow reports whether this node's tracker reads zero.
func (n *Node) IdleNow() bool { return n.pend.IdleNow() }

// IdleWait returns the channel the tracker's next zero-transition
// closes, and its cancel (see quiesce.NotifyTracker.IdleWait).
func (n *Node) IdleWait() (<-chan struct{}, func()) { return n.pend.IdleWait() }

// UseSymbols sets the plan symbol table the node resolves decoded
// payloads against — received frames and WAL replay alike — so an
// attempt, announcement or decision reaches its handler with its id,
// and a name the plan does not hold is refused as a bad payload.
func (n *Node) UseSymbols(tab *symtab.Table) { n.syms.Store(tab) }

// Stats reports delivery metrics: frames delivered to handlers and
// duplicates suppressed by receiver-side dedup.
func (n *Node) Stats() (delivered, deduped int64) {
	return n.delivered.Load(), n.deduped.Load()
}

// BatchStats reports outbound coalescing: transmissions that carried
// two or more DATA records, and those records.  A lone record is not
// counted, so frames/batches is the achieved coalescing factor.
func (n *Node) BatchStats() (batches, frames int64) {
	return n.batches.Load(), n.batchedFrames.Load()
}

// WALSyncs reports completed fsync batches on this node's log (zero
// for a volatile node).
func (n *Node) WALSyncs() int64 {
	if n.wal == nil {
		return 0
	}
	return n.wal.Syncs()
}

// Close shuts the node down: listener, accepted connections implied by
// it, outbound links, and site goroutines.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	links := make([]*link, 0, len(n.links))
	for _, l := range n.links {
		links = append(links, l)
	}
	sites := make([]*inbox, 0, len(n.sites))
	for _, ib := range n.sites {
		sites = append(sites, ib)
	}
	n.mu.Unlock()

	if n.ckptStop != nil {
		close(n.ckptStop)
	}
	if n.lis != nil {
		n.lis.Close()
	}
	for _, l := range links {
		l.close()
	}
	for _, ib := range sites {
		ib.close()
	}
	if n.wal != nil {
		n.wal.Close()
	}
}

func (n *Node) isClosed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf("[netwire %s] "+format, append([]any{n.cfg.ID}, args...)...)
	}
}

// link returns (creating if needed) the outbound link to a remote
// address.
func (n *Node) link(addr string) *link {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.links[addr]
	if !ok {
		l = newLink(n, addr)
		n.links[addr] = l
		if n.closed {
			// A send racing Close: Close has already closed the links it
			// saw, so this one is born closed rather than redialling a
			// dead peer for the life of the process.
			l.close()
		}
		go l.run()
	}
	return l
}

// recvPeer returns the dedup state for a sending node, shared across
// that node's reconnects.
func (n *Node) recvPeer(id string) *recvPeer {
	n.mu.Lock()
	defer n.mu.Unlock()
	rp, ok := n.recvs[id]
	if !ok {
		rp = &recvPeer{buffered: map[uint64]pendingFrame{}}
		n.recvs[id] = rp
	}
	return rp
}

// inbox serializes one site's deliveries on a single goroutine, the
// per-site serialization actor.Net promises.
type inbox struct {
	node    *Node
	site    simnet.SiteID
	handler func(payload any)

	mu    sync.Mutex
	cond  *sync.Cond
	queue []inItem
	// closed is set under mu (the loop waits on cond for it) and read
	// without it between deliveries.
	closed atomic.Bool
}

// inItem is one queued delivery.  In WAL mode it carries the LSN of
// its log record (the handler runs only once that record is durable —
// processed implies durable implies replayed) and the sender's Lamport
// counter, folded just before the handler instead of at socket arrival
// so the counter evolution is a deterministic function of the durable
// delivery order and can be reproduced by replay.
type inItem struct {
	payload any
	clock   int64
	lsn     uint64
}

func (ib *inbox) enqueue(it inItem) {
	ib.mu.Lock()
	ib.queue = append(ib.queue, it)
	ib.mu.Unlock()
	ib.cond.Signal()
}

func (ib *inbox) close() {
	ib.mu.Lock()
	ib.closed.Store(true)
	ib.mu.Unlock()
	ib.cond.Broadcast()
}

// loop takes the whole queue at a time and hands the queue the slice
// it emptied last, so the two swap and neither is reallocated in the
// steady state.
func (ib *inbox) loop() {
	var batch []inItem
	for {
		ib.mu.Lock()
		for len(ib.queue) == 0 && !ib.closed.Load() {
			ib.cond.Wait()
		}
		if ib.closed.Load() {
			// Drop the remainder; pending accounting still settles.
			rest := len(ib.queue)
			ib.queue = nil
			ib.mu.Unlock()
			for i := 0; i < rest; i++ {
				ib.node.pend.Done()
			}
			return
		}
		batch, ib.queue = ib.queue, batch[:0]
		ib.mu.Unlock()

		for i, it := range batch {
			if ib.closed.Load() {
				// Drop the rest of the batch; the next pass drops the
				// queue.
				for range batch[i:] {
					ib.node.pend.Done()
				}
				break
			}
			if it.lsn > 0 && ib.node.wal.WaitDurable(it.lsn) != nil {
				// The log closed or failed before this record became
				// durable: processing a delivery outside the durable
				// prefix would fork the recovered state.
				ib.node.pend.Done()
				continue
			}
			if it.clock > 0 {
				ib.node.observeClock(it.clock)
			}
			ib.handler(it.payload)
			ib.node.pend.Done()
		}
		clear(batch) // drop the delivered payloads
	}
}

// recvPeer is the receiving end of the reliable link from one sending
// node: dedup plus in-order release.  Frames are delivered to handlers
// strictly in sequence order — out-of-order arrivals are buffered
// until the gap fills (retransmission guarantees it will) — so the
// link presents FIFO, exactly-once semantics per sender, the channel
// assumption the actor protocol is built on.  The watermark is the
// cumulative acknowledgement: everything at or below it was delivered.
type recvPeer struct {
	mu        sync.Mutex
	watermark uint64
	buffered  map[uint64]pendingFrame
	// delivered counts the frames deliver has handed on, each once the
	// node's pending count covers it (IdleReport relies on that order).
	delivered atomic.Uint64
	// lastLsn is the log record of the newest delivery logged from this
	// peer; acknowledgements wait for it so an acked frame is always
	// durable (the sender prunes it and will never retransmit).
	lastLsn atomic.Uint64
}

// pendingFrame is one parsed DATA record.  Its site name and payload
// alias the connection's read buffer until admit buffers the record out
// of order.
type pendingFrame struct {
	seq     uint64
	clock   int64
	to      []byte // destination site name
	ib      *inbox // to's inbox (receiver.batch); nil if this node does not host it
	payload []byte
}

// admit folds one arrived frame in: it appends the frames now ready for
// delivery to ready (in sequence order; none for duplicates and gaps)
// and returns it, a duplicate flag, and the cumulative acknowledgement.
// ready belongs to the caller: a reconnect can briefly leave two
// serving goroutines on one peer.
func (rp *recvPeer) admit(ready []pendingFrame, f pendingFrame) ([]pendingFrame, bool, uint64) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if f.seq == 0 || f.seq <= rp.watermark {
		return ready, true, rp.watermark
	}
	if f.seq != rp.watermark+1 {
		if _, dup := rp.buffered[f.seq]; dup {
			return ready, true, rp.watermark
		}
		// Held past this read: the record gets storage of its own.
		f.to, f.payload = bytes.Clone(f.to), bytes.Clone(f.payload)
		rp.buffered[f.seq] = f
		return ready, false, rp.watermark
	}
	// In order: the buffer never holds watermark+1, so only a gap this
	// frame closes needs the map.
	rp.watermark++
	ready = append(ready, f)
	for len(rp.buffered) > 0 {
		next, ok := rp.buffered[rp.watermark+1]
		if !ok {
			break
		}
		delete(rp.buffered, rp.watermark+1)
		rp.watermark++
		ready = append(ready, next)
	}
	return ready, false, rp.watermark
}

// acceptLoop serves inbound connections.
func (n *Node) acceptLoop() {
	for {
		conn, err := n.lis.Accept()
		if err != nil {
			return
		}
		go n.serveConn(conn)
	}
}

// serveConn handles one inbound connection: a HELLO identifying the
// sending node, then batch frames, acknowledged cumulatively on the
// same connection — inline on a volatile node, once per drained read
// burst, and through the connection's ackPump on a durable one, so
// reads never wait on fsync.
func (n *Node) serveConn(conn net.Conn) {
	if n.cfg.Debug != nil {
		wrapped, frame, err := obs.SniffConn(conn)
		if err != nil {
			conn.Close()
			return
		}
		if !frame {
			n.serveDebugHTTP(wrapped)
			return
		}
		conn = wrapped
	}
	defer conn.Close()
	cw := newConnWriter(conn, writeTimeout)
	defer cw.shutdown()
	var pump *ackPump
	if n.wal != nil {
		pump = &ackPump{wake: make(chan struct{}, 1), done: make(chan struct{})}
		defer close(pump.done)
		go pump.run(n.wal, conn, cw)
	}
	br := bufio.NewReader(conn)
	var buf []byte // frame bodies, reused: a body is valid until the next read
	rc := receiver{node: n}
	for {
		typ, body, err := readFrame(br, &buf)
		if err != nil {
			if err != io.EOF && !n.isClosed() {
				n.logf("inbound %s: %v", rc.peerID, err)
			}
			return
		}
		switch typ {
		case frameHello:
			id, clock, err := parseHello(body)
			if err != nil {
				n.logf("bad hello: %v", err)
				return
			}
			rc.peerID = id
			rc.peer = n.recvPeer(id)
			if n.wal == nil {
				// In WAL mode clocks are folded at dequeue only, so the
				// counter evolution is replayable from the log.
				n.observeClock(clock)
			}
		case frameBatch:
			if rc.peer == nil {
				n.logf("data before hello")
				return
			}
			ack, ok := rc.batch(body)
			if !ok {
				return
			}
			// One cumulative acknowledgement covers the whole batch, sent
			// after the deliveries are accounted for so the sender's
			// pending interval overlaps the receiver's — and, in WAL mode,
			// through the pump, which acks only once the logged deliveries
			// are durable, so the sender never prunes a frame we could
			// lose.  Inline, the ack waits only while another complete
			// frame is already buffered: reading that frame cannot block,
			// and its own ack covers this batch too.
			if pump != nil {
				pump.offer(ack, rc.peer.lastLsn.Load())
			} else if !frameBuffered(br) {
				if err := cw.writeAck(ack); err != nil {
					return
				}
			}
		default:
			n.logf("unexpected inbound frame type %d from %s", typ, rc.peerID)
			return
		}
	}
}

// ackPump writes one inbound connection's acknowledgements in WAL mode.
// An ack may cover only deliveries whose KIn records are durable, and
// waiting for that on the read loop would cap the link at one frame per
// commit round: frames arriving during an fsync would queue in the
// socket instead of joining the next round.  So the read loop offers
// (cumulative ack, LSN of the newest delivery logged from the peer) and
// goes straight back to reading; the pump keeps only the highest pair,
// waits until that LSN is durable, and writes one ack covering
// everything offered meanwhile.
type ackPump struct {
	mu   sync.Mutex
	ack  uint64
	lsn  uint64
	wake chan struct{} // capacity 1: a new pair was offered
	done chan struct{} // closed when the read loop exits
}

// offer records that everything up to ack may be acknowledged once the
// log is durable through lsn.
func (p *ackPump) offer(ack, lsn uint64) {
	p.mu.Lock()
	p.ack, p.lsn = max(p.ack, ack), max(p.lsn, lsn)
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// run is the pump's lifetime.  It closes the connection without
// acking when the log closes or fails before the offered LSN is
// durable — acknowledging a non-durable delivery would let the sender
// prune a frame the recovered node never saw — or when an ack write
// fails.
func (p *ackPump) run(w *wal.Log, conn net.Conn, cw *connWriter) {
	defer conn.Close()
	for {
		select {
		case <-p.wake:
		case <-p.done:
			return
		}
		p.mu.Lock()
		ack, lsn := p.ack, p.lsn
		p.mu.Unlock()
		if w.WaitDurable(lsn) != nil {
			return
		}
		if err := cw.writeAck(ack); err != nil {
			return
		}
	}
}

// receiver is the data path of one inbound connection, from a batch
// frame's body to the inboxes of the sites it addresses.  Its slices
// and its site routes are reused from frame to frame.
type receiver struct {
	node   *Node
	peerID string
	peer   *recvPeer
	routes []*inbox // hosted sites this connection has addressed
	recs   []pendingFrame
	ready  []pendingFrame
}

// route resolves a record's destination site name to its inbox without
// building a string, nil if the node does not host it.
func (rc *receiver) route(name []byte) *inbox {
	for _, ib := range rc.routes {
		if string(ib.site) == string(name) {
			return ib
		}
	}
	rc.node.mu.Lock()
	ib := rc.node.sites[simnet.SiteID(name)]
	rc.node.mu.Unlock()
	if ib != nil {
		rc.routes = append(rc.routes, ib)
	}
	return ib
}

// batch parses, admits and delivers one batch frame's records and
// returns the cumulative acknowledgement.  It reports false on a
// protocol violation (the caller kills the connection).
func (rc *receiver) batch(body []byte) (ack uint64, ok bool) {
	n := rc.node
	var err error
	rc.recs, err = parseBatch(rc.recs[:0], body)
	if err != nil {
		n.logf("bad batch from %s: %v", rc.peerID, err)
		return 0, false
	}
	for _, f := range rc.recs {
		f.ib = rc.route(f.to)
		if n.wal == nil {
			n.observeClock(f.clock)
		}
		var dup bool
		rc.ready, dup, ack = rc.peer.admit(rc.ready[:0], f)
		if dup {
			n.deduped.Add(1)
		}
		if !rc.deliver(rc.ready) {
			return 0, false
		}
	}
	return ack, true
}

// deliver decodes and enqueues frames released in order by the receive
// peer.  It reports false on a protocol violation.
func (rc *receiver) deliver(ready []pendingFrame) bool {
	n := rc.node
	for _, f := range ready {
		msg, err := actor.DecodePayloadOn(n.syms.Load(), f.payload)
		if err != nil {
			n.logf("bad payload from %s: %v", rc.peerID, err)
			return false
		}
		ib := f.ib
		if ib == nil {
			n.logf("frame %d from %s for unhosted site %q", f.seq, rc.peerID, f.to)
			rc.peer.delivered.Add(1)
			continue
		}
		var lsn uint64
		var clock int64
		if n.wal != nil {
			lsn = n.wal.Append(wal.Record{
				Kind: wal.KIn, Site: string(ib.site), Peer: rc.peerID,
				Seq: f.seq, Clock: f.clock, Payload: f.payload,
			})
			// Monotone max: a reconnect can briefly leave two serving
			// goroutines on one recvPeer.
			for {
				cur := rc.peer.lastLsn.Load()
				if lsn <= cur || rc.peer.lastLsn.CompareAndSwap(cur, lsn) {
					break
				}
			}
			clock = f.clock
		}
		n.delivered.Add(1)
		n.pend.Add(1)
		rc.peer.delivered.Add(1)
		ib.enqueue(inItem{payload: msg, clock: clock, lsn: lsn})
	}
	return true
}

// connWriter serializes frame writes on one connection with a bounded
// deadline; it survives races between session teardown and delayed
// (fault-injected) writes.  Frames are built in a reusable buffer
// behind their length prefix and leave in a single Write: with
// TCP_NODELAY a separate header write would be a segment of its own.
type connWriter struct {
	mu      sync.Mutex
	conn    net.Conn
	timeout time.Duration
	closed  bool
	buf     []byte // frame under construction; guarded by mu
}

func newConnWriter(conn net.Conn, timeout time.Duration) *connWriter {
	return &connWriter{conn: conn, timeout: timeout, buf: make([]byte, 4, 256)}
}

func (w *connWriter) writeHello(id string, clock int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = appendHello(w.buf[:4], id, clock)
	return w.send(w.buf)
}

func (w *connWriter) writeAck(upTo uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = appendAck(w.buf[:4], upTo)
	return w.send(w.buf)
}

func (w *connWriter) writeBatch(clock int64, frames []*outFrame) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = appendBatch(w.buf[:4], clock, frames)
	return w.send(w.buf)
}

// writeFrame sends a frame the caller built in storage of its own,
// frame[:4] reserved for the length prefix.
func (w *connWriter) writeFrame(frame []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.send(frame)
}

// send fills in the length prefix of frame (frame[:4]) and writes the
// whole frame at once.  The caller holds w.mu.
func (w *connWriter) send(frame []byte) error {
	if w.closed {
		return net.ErrClosed
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	_, err := w.conn.Write(frame)
	return err
}

// shutdown marks the writer closed so late delayed writes become
// no-ops instead of racing the connection teardown.
func (w *connWriter) shutdown() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
}

// readFrame reads one length-prefixed frame into *buf, growing it as
// needed, and returns its type and body (excluding version and type
// bytes).  The body aliases *buf and is valid until the next read into
// it: whatever outlives that — a record the receiver buffers out of
// order — is copied.
func readFrame(r *bufio.Reader, buf *[]byte) (byte, []byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	size := binary.BigEndian.Uint32(hdr)
	if size < 2 || size > maxFrame {
		return 0, nil, fmt.Errorf("netwire: frame size %d out of range", size)
	}
	r.Discard(4) // cannot fail: Peek just buffered these bytes
	if cap(*buf) < int(size) {
		*buf = make([]byte, size)
	}
	body := (*buf)[:size]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	if body[0] != frameVersion {
		return 0, nil, fmt.Errorf("netwire: frame version %d, want %d", body[0], frameVersion)
	}
	return body[1], body[2:], nil
}

// frameBuffered reports whether r already holds a complete frame of
// valid size, so that the next readFrame returns without reading the
// connection.
func frameBuffered(r *bufio.Reader) bool {
	if r.Buffered() < 4 {
		return false
	}
	hdr, _ := r.Peek(4)
	size := binary.BigEndian.Uint32(hdr)
	return size >= 2 && size <= maxFrame && r.Buffered()-4 >= int(size)
}

func appendHello(dst []byte, id string, clock int64) []byte {
	dst = append(dst, frameVersion, frameHello)
	dst = binary.AppendUvarint(dst, uint64(len(id)))
	dst = append(dst, id...)
	dst = binary.AppendVarint(dst, clock)
	return dst
}

func parseHello(body []byte) (string, int64, error) {
	ln, n := binary.Uvarint(body)
	if n <= 0 || ln > maxFrame || int(ln) > len(body)-n {
		return "", 0, fmt.Errorf("bad hello id")
	}
	id := string(body[n : n+int(ln)])
	clock, m := binary.Varint(body[n+int(ln):])
	if m <= 0 {
		return "", 0, fmt.Errorf("bad hello clock")
	}
	return id, clock, nil
}

// appendBatch builds one batch frame from 1..maxBatchFrames queued
// frames, all stamped with the same (current) Lamport clock.  Each
// becomes one self-delimiting DATA record.
func appendBatch(dst []byte, clock int64, frames []*outFrame) []byte {
	dst = append(dst, frameVersion, frameBatch)
	dst = binary.AppendUvarint(dst, uint64(len(frames)))
	for _, f := range frames {
		dst = binary.AppendUvarint(dst, f.seq)
		dst = binary.AppendVarint(dst, clock)
		dst = binary.AppendUvarint(dst, uint64(len(f.from)))
		dst = append(dst, f.from...)
		dst = binary.AppendUvarint(dst, uint64(len(f.to)))
		dst = append(dst, f.to...)
		dst = binary.AppendUvarint(dst, uint64(len(f.payload)))
		dst = append(dst, f.payload...)
	}
	return dst
}

// parseBatch parses a batch frame body — a count of 1..maxBatchFrames
// followed by exactly that many DATA records — appending the records to
// dst.  The whole frame is checked before any record is used, so a
// malformed frame delivers nothing.  Site names and payloads alias body.
func parseBatch(dst []pendingFrame, body []byte) ([]pendingFrame, error) {
	count, used := binary.Uvarint(body)
	if used <= 0 || count == 0 || count > maxBatchFrames {
		return dst, fmt.Errorf("bad batch count")
	}
	rest := body[used:]
	for i := uint64(0); i < count; i++ {
		f, r, err := parseDataRecord(rest)
		if err != nil {
			return dst, err
		}
		dst = append(dst, f)
		rest = r
	}
	if len(rest) != 0 {
		return dst, fmt.Errorf("%d trailing bytes", len(rest))
	}
	return dst, nil
}

// parseDataRecord parses one DATA record and returns the unconsumed
// remainder, letting parseBatch walk a frame of concatenated records.
// The from-site is diagnostic only and skipped.
func parseDataRecord(body []byte) (f pendingFrame, rest []byte, err error) {
	pos := 0
	field := func(what string) ([]byte, error) {
		ln, n := binary.Uvarint(body[pos:])
		if n <= 0 || ln > maxFrame {
			return nil, fmt.Errorf("bad %s length", what)
		}
		pos += n
		if pos+int(ln) > len(body) {
			return nil, fmt.Errorf("truncated %s", what)
		}
		pos += int(ln)
		return body[pos-int(ln) : pos], nil
	}
	seq, n := binary.Uvarint(body)
	if n <= 0 {
		return f, nil, fmt.Errorf("bad seq")
	}
	pos += n
	clock, n := binary.Varint(body[pos:])
	if n <= 0 {
		return f, nil, fmt.Errorf("bad clock")
	}
	pos += n
	if _, err = field("from-site"); err != nil {
		return f, nil, err
	}
	to, err := field("to-site")
	if err != nil {
		return f, nil, err
	}
	payload, err := field("payload")
	if err != nil {
		return f, nil, err
	}
	return pendingFrame{seq: seq, clock: clock, to: to, payload: payload}, body[pos:], nil
}

func appendAck(dst []byte, upTo uint64) []byte {
	dst = append(dst, frameVersion, frameAck)
	return binary.AppendUvarint(dst, upTo)
}

func parseAck(body []byte) (uint64, error) {
	v, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, fmt.Errorf("bad ack")
	}
	if n != len(body) {
		// A trailing-garbage ack is a framing violation, not a lower
		// watermark to silently adopt — reject it so the connection is
		// torn down and retransmission resynchronizes.
		return 0, fmt.Errorf("ack: %d trailing bytes", len(body)-n)
	}
	return v, nil
}
