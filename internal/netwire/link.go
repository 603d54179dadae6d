package netwire

import (
	"bufio"
	"hash/fnv"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/actor"
	"repro/internal/simnet"
	"repro/internal/wal"
)

// link is the reliable outbound channel to one remote node: an
// unacknowledged-frame queue drained by a single goroutine that dials
// with exponential backoff plus jitter, retransmits on timeout
// (go-back-N), and prunes on cumulative acknowledgements.
type link struct {
	node *Node
	addr string

	mu      sync.Mutex
	frames  []*outFrame // unacked, ascending seq
	nextSeq uint64
	acked   uint64 // cumulative ack received
	// spent holds pruned frames.  Only the session goroutine recycles
	// them — their encode buffers to the pool, the frames to free —
	// and only after it has finished transmitting its current slice,
	// because an ack can prune a frame the session is concurrently
	// reading.  enqueue takes its frames from free.
	spent, free []*outFrame

	wake   chan struct{} // capacity 1: new frame or ack progress
	closed chan struct{}

	// rng drives reconnect jitter.  Seeded deterministically from the
	// fault-plan seed, the node index, and the remote address so seeded
	// chaos runs reproduce their backoff schedules; used only by the
	// run goroutine.
	rng *rand.Rand
}

// outFrame is one queued payload; the DATA frame bytes are rebuilt per
// transmission so each copy carries a fresh Lamport clock.
type outFrame struct {
	seq      uint64
	from, to simnet.SiteID
	payload  []byte  // actor wire encoding
	pbuf     *[]byte // pooled buffer backing payload, nil if unpooled
	attempts int     // transmissions tried (session goroutine only)
	// lsn is the frame's WAL record (0 = already durable): the session
	// withholds the frame until the log catches up, so nothing a peer
	// sees can be lost in a crash.
	lsn uint64
}

func newLink(n *Node, addr string) *link {
	var seed int64
	if fp := n.cfg.Fault; fp != nil {
		seed = fp.Seed
	}
	h := fnv.New64a()
	h.Write([]byte(addr))
	seed ^= int64(h.Sum64()) ^ int64(n.cfg.NodeIndex)<<40
	return &link{
		node:   n,
		addr:   addr,
		wake:   make(chan struct{}, 1),
		closed: make(chan struct{}),
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// jitter returns d scaled by a uniform factor in [0.5, 1.5): desynced
// reconnect storms, reproducible under a seeded fault plan.
func (l *link) jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(l.rng.Int63n(int64(d)))
}

// enqueue appends a frame to the unacked queue and wakes the sender.
// The caller has already counted it in the node's pending tracker; the
// count is released when the acknowledgement prunes the frame.
func (l *link) enqueue(from, to simnet.SiteID, payload []byte, pbuf *[]byte) {
	l.mu.Lock()
	l.nextSeq++
	var f *outFrame
	if k := len(l.free); k > 0 {
		f, l.free = l.free[k-1], l.free[:k-1]
	} else {
		f = new(outFrame)
	}
	*f = outFrame{seq: l.nextSeq, from: from, to: to, payload: payload, pbuf: pbuf}
	if w := l.node.wal; w != nil {
		// Logged under the link lock so LSN order matches sequence
		// order — the session's first-undurable-frame cut is then a
		// clean go-back-N prefix.  Append copies the payload, so the
		// pooled buffer lifecycle is unchanged.
		f.lsn = w.Append(wal.Record{
			Kind: wal.KOut, Site: string(from), Site2: string(to),
			Seq: f.seq, Payload: payload,
		})
	}
	l.frames = append(l.frames, f)
	l.mu.Unlock()
	mQueueDepth.Add(1)
	l.signal()
}

func (l *link) signal() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

func (l *link) close() {
	select {
	case <-l.closed:
	default:
		close(l.closed)
	}
}

// ackMark is the highest pruned sequence number of one destination
// site.
type ackMark struct {
	to  simnet.SiteID
	seq uint64
}

// ack prunes frames covered by a cumulative acknowledgement, releasing
// their pending counts.  The queue is compacted in place, so it keeps
// its capacity.
func (l *link) ack(upTo uint64) {
	l.mu.Lock()
	pruned := 0
	for pruned < len(l.frames) && l.frames[pruned].seq <= upTo {
		pruned++
	}
	if w := l.node.wal; w != nil && pruned > 0 {
		// Record ack progress per destination site so recovery skips
		// retransmitting pruned frames.  Frames ascend by seq, so a
		// site's last pruned frame is its highest.  No durability
		// wait: losing an ack record only causes a retransmission the
		// receiver dedups.
		var buf [8]ackMark // a link's frames address a few sites
		marks := buf[:0]
	next:
		for _, f := range l.frames[:pruned] {
			for i := range marks {
				if marks[i].to == f.to {
					marks[i].seq = f.seq
					continue next
				}
			}
			marks = append(marks, ackMark{f.to, f.seq})
		}
		for _, m := range marks {
			w.Append(wal.Record{Kind: wal.KAck, Site2: string(m.to), Seq: m.seq})
		}
	}
	// The session goroutine may still be reading a pruned frame; it
	// recycles them once its transmission is over.
	l.spent = append(l.spent, l.frames[:pruned]...)
	n := copy(l.frames, l.frames[pruned:])
	clear(l.frames[n:])
	l.frames = l.frames[:n]
	if upTo > l.acked {
		l.acked = upTo
	}
	l.mu.Unlock()
	for i := 0; i < pruned; i++ {
		l.node.pend.Done()
	}
	if pruned > 0 {
		mQueueDepth.Add(int64(-pruned))
		l.signal()
	}
}

// recycle returns the frames pruned since the last call to the pool
// and the free list.  Only the session goroutine calls it, between
// transmissions; the caller holds l.mu.
func (l *link) recycle() {
	for _, f := range l.spent {
		if f.pbuf != nil {
			actor.PutEncodeBuf(f.pbuf)
		}
		*f = outFrame{}
		l.free = append(l.free, f)
	}
	clear(l.spent)
	l.spent = l.spent[:0]
}

// sendable appends to dst the queued frames from sequence number from
// on, in order, up to the first one whose WAL record is not yet
// durable.  The caller holds l.mu.
func (l *link) sendable(dst []*outFrame, from uint64) []*outFrame {
	var durable uint64
	if w := l.node.wal; w != nil {
		durable = w.Durable()
	}
	for _, f := range l.frames {
		if f.seq < from {
			continue
		}
		if f.lsn > durable {
			// Not yet durable: stop at the first gap — go-back-N needs
			// in-order transmission, and the durable-advance callback
			// will wake us to send the rest.
			break
		}
		dst = append(dst, f)
	}
	return dst
}

// run is the link's lifetime: dial, run a session until it fails, back
// off, redial.  Backoff resets after any successful session.
func (l *link) run() {
	backoff := l.node.cfg.retryMin()
	for {
		select {
		case <-l.closed:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", l.addr, 2*time.Second)
		if err != nil {
			l.node.logf("dial %s: %v (retry in ~%v)", l.addr, err, backoff)
			select {
			case <-l.closed:
				return
			case <-time.After(l.jitter(backoff)):
			}
			backoff = min(backoff*2, l.node.cfg.retryMax())
			continue
		}
		backoff = l.node.cfg.retryMin()
		l.session(conn)
		select {
		case <-l.closed:
			return
		default:
		}
	}
}

// session drives one established connection: HELLO, then transmit new
// frames as they arrive, retransmitting from the oldest unacked frame
// whenever the retransmission timer fires without ack progress.
func (l *link) session(conn net.Conn) {
	cw := newConnWriter(conn, l.node.cfg.writeTimeout())
	defer func() {
		cw.shutdown()
		conn.Close()
	}()

	if err := cw.writeHello(l.node.cfg.ID, l.node.clock.Load()); err != nil {
		return
	}

	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		br := bufio.NewReader(conn)
		var buf []byte
		for {
			typ, body, err := readFrame(br, &buf)
			if err != nil {
				return
			}
			if typ != frameAck {
				l.node.logf("unexpected frame type %d on ack channel", typ)
				return
			}
			upTo, err := parseAck(body)
			if err != nil {
				return
			}
			l.ack(upTo)
		}
	}()
	// The session ends by closing the connection, then waiting for the
	// ack reader: the reader is blocked in Read on this connection, and
	// only the close unblocks it.  Waiting first would strand it — and
	// the peer's serveConn, which waits for this side to close — for
	// good.
	defer func() {
		cw.shutdown()
		conn.Close()
		<-readerDone
	}()

	// nextSend is the first sequence number not yet transmitted in this
	// session; everything unacked below it was sent on this connection.
	l.mu.Lock()
	nextSend := l.acked + 1
	if len(l.frames) > 0 && l.frames[0].seq > nextSend {
		nextSend = l.frames[0].seq
	}
	prevAcked := l.acked
	l.mu.Unlock()
	rto := l.node.cfg.retryMin()
	// One retransmission timer, re-armed on every pass that waits with
	// frames unacked.
	timer := time.NewTimer(rto)
	defer timer.Stop()

	// The send list is reused from pass to pass.
	var toSend []*outFrame
	for {
		l.mu.Lock()
		if l.acked > prevAcked {
			// Ack progress: the pipe is moving, reset the timeout.
			prevAcked = l.acked
			rto = l.node.cfg.retryMin()
		}
		toSend = l.sendable(toSend[:0], nextSend)
		l.mu.Unlock()
		if k := len(toSend); k > 0 && k < maxBatchFrames {
			// Yield once before a small flush: the producers this wake
			// found runnable enqueue first and share the write.  A burst
			// that is already a full batch goes out at once.
			runtime.Gosched()
			l.mu.Lock()
			toSend = l.sendable(toSend, toSend[k-1].seq+1)
			l.mu.Unlock()
		}
		if len(toSend) > 0 {
			nextSend = toSend[len(toSend)-1].seq + 1
		}

		// Coalesce what is ready into batch frames of up to the size
		// thresholds, one write each.
		for rest := toSend; len(rest) > 0; {
			take, size := 1, len(rest[0].payload)
			for take < len(rest) && take < maxBatchFrames && size < maxBatchBytes {
				size += len(rest[take].payload)
				take++
			}
			mBatchFill.Observe(int64(take))
			if err := l.transmit(cw, rest[:take]); err != nil {
				return
			}
			rest = rest[take:]
		}

		// Recycle the frames acked since the last pass.  This runs
		// strictly after the transmit loop above released its last
		// payload reference, which is what makes pooling safe.
		l.mu.Lock()
		l.recycle()
		unacked := len(l.frames)
		l.mu.Unlock()

		if unacked == 0 {
			select {
			case <-l.wake:
			case <-l.closed:
				return
			case <-readerDone:
				return
			}
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(rto)
		select {
		case <-l.wake:
		case <-l.closed:
			return
		case <-readerDone:
			return
		case <-timer.C:
			// Retransmission timeout without ack progress: go back to
			// the oldest unacked frame and back off.
			l.mu.Lock()
			if l.acked == prevAcked && len(l.frames) > 0 {
				nextSend = l.frames[0].seq
			}
			l.mu.Unlock()
			rto = min(rto*2, l.node.cfg.retryMax())
		}
	}
}

// transmit writes 1..maxBatchFrames frames as one batch frame, applying
// the fault plan.  Partition-blocked frames are withheld individually
// first; their retransmission recovers them, and receiver-side
// buffering bridges the sequence gaps they leave.  The rest share one
// VerdictFor draw, keyed by the link, the first sequence number and
// that frame's attempt count: dropped frames are withheld (the
// retransmission timer recovers them), duplicated ones are written
// twice, delayed and reordered ones are written later from a timer.
// Faults apply only here — never to HELLO or ACK frames — so injected
// chaos is confined to the payload path the reliability layer is built
// to mask.
func (l *link) transmit(cw *connWriter, frames []*outFrame) error {
	for _, f := range frames {
		if f.attempts > 0 {
			mRetransmits.Inc()
		}
		f.attempts++
	}
	fp := l.node.cfg.Fault
	if fp != nil {
		now := l.node.Now()
		kept := frames[:0]
		for _, f := range frames {
			if _, blocked := fp.Blocked(f.from, f.to, now); !blocked {
				kept = append(kept, f)
			}
		}
		if frames = kept; len(frames) == 0 {
			return nil
		}
	}
	if len(frames) > 1 {
		l.node.batches.Add(1)
		l.node.batchedFrames.Add(int64(len(frames)))
	}
	first := frames[0]
	v := fp.VerdictFor(first.from, first.to, first.seq, first.attempts-1)
	if v.Drop {
		return nil
	}
	clock := l.node.clock.Load()
	if v.Extra > 0 {
		// The timer writes after cw's buffer has been reused, so the
		// late frame is built in storage of its own.
		frame := appendBatch(make([]byte, 4, 64), clock, frames)
		d := time.Duration(v.Extra) * time.Microsecond
		time.AfterFunc(d, func() {
			cw.writeFrame(frame) // late writes on a closed session are no-ops
		})
		return nil
	}
	if err := cw.writeBatch(clock, frames); err != nil {
		return err
	}
	if v.Dup {
		return cw.writeBatch(clock, frames)
	}
	return nil
}
