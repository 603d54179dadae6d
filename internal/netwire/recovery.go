package netwire

// Crash recovery: replaying a node's WAL rebuilds exactly the state it
// held at the durable prefix of its log.
//
// The replay contract rests on three orderings the live node enforces:
//
//  1. processed ⇒ durable — a delivery's handler runs only after its
//     IN record is on disk, so every handler execution that shaped
//     local state is in the log;
//  2. acked ⇒ durable — the cumulative acknowledgement is written only
//     after the logged deliveries it covers are durable, so a peer
//     never prunes a frame this node could lose;
//  3. visible ⇒ durable — an outbound frame transmits only once its
//     OUT record (and, because the actor journals fires before
//     sending, the FIRE record it announces) is durable, so nothing a
//     peer observed can be lost.
//
// Replay then walks the tail IN records in log order and invokes the
// registered site handlers directly — single-threaded, transport not
// yet started, so nothing else can enqueue.  Sends the handlers
// regenerate are matched by count against the logged sends per
// (from, to) pair and suppressed (they happened); any excess was lost
// in the crash and is deferred until the node is live.  Fires pop
// their occurrence indices from the logged FIRE queue so occurrence
// indices — and through clock folding, the whole Lamport evolution —
// are reproduced exactly.

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/actor"
	"repro/internal/simnet"
	"repro/internal/wal"
)

// RecoveryHost restores the application state a snapshot captured:
// arun implements it by loading serialized actor (or driver) state
// into freshly built, not-yet-active handlers.
type RecoveryHost interface {
	RestoreSite(site simnet.SiteID, state []byte) error
}

// Recoverer is the transport-side recovery surface (Node and Mesh
// implement it); arun's Resume drives it before starting the run.
type Recoverer interface {
	NeedsRecovery() bool
	Recover(host RecoveryHost) error
}

// replayState is live only during Recover's single-threaded replay.
type replayState struct {
	// counts: PairKey(from,to) → logged sends not yet re-generated.
	counts map[string]int
	// fires is the FIFO queue of logged occurrence indices.
	fires []int64
	// pinsExhausted: a replayed fire outran the logged pins (its record
	// was lost); later fires are fresh draws and must be re-journaled.
	pinsExhausted bool
	// deferred are regenerated sends absent from the log.
	deferred []deferredSend
}

type deferredSend struct {
	from, to simnet.SiteID
	payload  any
}

func (r *replayState) send(from, to simnet.SiteID, payload any) {
	key := wal.PairKey(string(from), string(to))
	if r.counts[key] > 0 {
		r.counts[key]--
		return
	}
	r.deferred = append(r.deferred, deferredSend{from: from, to: to, payload: payload})
}

func (r *replayState) popFire() (int64, bool) {
	if len(r.fires) == 0 {
		return 0, false
	}
	at := r.fires[0]
	r.fires = r.fires[1:]
	return at, true
}

// restoreState is staged by Recover and applied by Start: delivery
// watermarks, link ack/sequence progress, unacknowledged frames to
// retransmit, and the deferred sends to flush once live.
type restoreState struct {
	watermarks map[string]uint64
	acked      map[string]uint64
	sentSeq    map[string]uint64
	unacked    map[string][]wal.Record
	deferred   []deferredSend
}

// NeedsRecovery reports whether the node's WAL holds state to restore.
func (n *Node) NeedsRecovery() bool {
	return n.wal != nil && !n.wal.Recovery().Empty()
}

// Recover rebuilds the node from its WAL: snapshot state through the
// host, then tail replay through the registered handlers.  It must run
// after every site is Registered and before Start.
func (n *Node) Recover(host RecoveryHost) error {
	if n.wal == nil {
		return fmt.Errorf("netwire: node %s has no WAL", n.cfg.ID)
	}
	rec := n.wal.Recovery()
	if rec.Empty() {
		return nil
	}
	sites := make([]string, 0, len(rec.SnapSites))
	for s := range rec.SnapSites {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	for _, s := range sites {
		if err := host.RestoreSite(simnet.SiteID(s), rec.SnapSites[s]); err != nil {
			return fmt.Errorf("netwire: restore site %s: %w", s, err)
		}
	}
	n.observeClock(rec.Clock)

	counts := make(map[string]int, len(rec.OutCounts))
	for k, v := range rec.OutCounts {
		counts[k] = v
	}
	r := &replayState{counts: counts, fires: rec.Fires}
	n.replay.Store(r)
	defer n.replay.Store(nil)
	for _, in := range rec.Ins {
		msg, err := actor.DecodePayloadOn(n.syms.Load(), in.Payload)
		if err != nil {
			return fmt.Errorf("netwire: replay decode for site %s: %w", in.Site, err)
		}
		n.mu.Lock()
		ib := n.sites[simnet.SiteID(in.Site)]
		n.mu.Unlock()
		if ib == nil {
			return fmt.Errorf("netwire: replay delivery for unregistered site %q", in.Site)
		}
		if in.Clock > 0 {
			n.observeClock(in.Clock)
		}
		// Handlers run on this goroutine: the inbox loops are idle
		// (nothing enqueues — Send is intercepted, the listener and
		// links are not started), so the per-site serialization the
		// actors require is trivially preserved.
		ib.handler(msg)
	}
	if len(r.fires) > 0 {
		return fmt.Errorf("netwire: replay of node %s left %d fire pins unconsumed", n.cfg.ID, len(r.fires))
	}
	n.restore = &restoreState{
		watermarks: rec.Watermarks,
		acked:      rec.Acked,
		sentSeq:    rec.SentSeq,
		unacked:    rec.Unacked,
		deferred:   r.deferred,
	}
	return nil
}

// applyRestore installs the staged recovery state into the transport:
// called from Start, before the accept loop runs.  It returns the
// deferred sends for the caller to flush once the node is live.
func (n *Node) applyRestore(peers map[simnet.SiteID]string) []deferredSend {
	rs := n.restore
	if rs == nil {
		return nil
	}
	n.restore = nil
	for id, wm := range rs.watermarks {
		rp := n.recvPeer(id)
		rp.mu.Lock()
		if wm > rp.watermark {
			rp.watermark = wm
			rp.delivered.Store(wm) // replay handled everything up to it
		}
		rp.mu.Unlock()
	}
	// Group per-destination-site link state by remote address (the mesh
	// may have been rebound — addresses are fresh, sites are stable).
	toSites := map[string]bool{}
	for to := range rs.acked {
		toSites[to] = true
	}
	for to := range rs.sentSeq {
		toSites[to] = true
	}
	for to := range rs.unacked {
		toSites[to] = true
	}
	started := []*link{}
	for _, to := range sortedKeys(toSites) {
		addr, ok := peers[simnet.SiteID(to)]
		if !ok {
			n.logf("recovery: no peer address for site %q, dropping its link state", to)
			continue
		}
		l, fresh := n.linkStopped(addr)
		if fresh {
			started = append(started, l)
		}
		l.mu.Lock()
		if a := rs.acked[to]; a > l.acked {
			l.acked = a
		}
		if s := rs.sentSeq[to]; s > l.nextSeq {
			l.nextSeq = s
		}
		for _, rec := range rs.unacked[to] {
			// Restored frames carry LSN 0: their records are already in
			// the durable log, so transmission is never withheld.
			l.frames = append(l.frames, &outFrame{
				seq: rec.Seq, from: simnet.SiteID(rec.Site), to: simnet.SiteID(rec.Site2),
				payload: rec.Payload,
			})
			if rec.Seq > l.nextSeq {
				l.nextSeq = rec.Seq
			}
			n.pend.Add(1)
			mQueueDepth.Add(1)
		}
		sort.Slice(l.frames, func(i, j int) bool { return l.frames[i].seq < l.frames[j].seq })
		l.mu.Unlock()
	}
	for _, l := range started {
		go l.run()
	}
	return rs.deferred
}

// linkStopped returns the link for addr, creating it *without* its run
// goroutine when absent (restore populates the queue first).
func (n *Node) linkStopped(addr string) (*link, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.links[addr]
	if !ok {
		l = newLink(n, addr)
		n.links[addr] = l
		return l, true
	}
	return l, false
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SetSnapshotProvider installs the per-site state serializer Snapshot
// uses.  The provider returns (nil, nil) for sites with nothing to
// snapshot and an error when the site's state is not settled — which
// fails the snapshot loudly instead of silently dropping state.
func (n *Node) SetSnapshotProvider(fn func(simnet.SiteID) ([]byte, error)) {
	n.mu.Lock()
	n.snapProvider = fn
	n.mu.Unlock()
}

// meta assembles the node's current watermark state.  Only sound as a
// snapshot basis at quiescence; as a checkpoint it is a monotone
// under-approximation, which recovery folds as maxima.
func (n *Node) meta() wal.Meta {
	m := wal.Meta{Clock: n.clock.Load()}
	n.mu.Lock()
	links := make(map[string]*link, len(n.links))
	for a, l := range n.links {
		links[a] = l
	}
	addrOf := map[string]string{}
	for site, addr := range n.peers {
		addrOf[string(site)] = addr
	}
	recvs := make(map[string]*recvPeer, len(n.recvs))
	for id, rp := range n.recvs {
		recvs[id] = rp
	}
	n.mu.Unlock()
	for id, rp := range recvs {
		rp.mu.Lock()
		wm := rp.watermark
		rp.mu.Unlock()
		if wm > 0 {
			if m.Watermarks == nil {
				m.Watermarks = map[string]uint64{}
			}
			m.Watermarks[id] = wm
		}
	}
	for site, addr := range addrOf {
		l := links[addr]
		if l == nil {
			continue
		}
		l.mu.Lock()
		acked, sent := l.acked, l.nextSeq
		l.mu.Unlock()
		if acked > 0 {
			if m.Acked == nil {
				m.Acked = map[string]uint64{}
			}
			m.Acked[site] = acked
		}
		if sent > 0 {
			if m.SentSeq == nil {
				m.SentSeq = map[string]uint64{}
			}
			m.SentSeq[site] = sent
		}
	}
	return m
}

// Snapshot compacts the node's WAL: it serializes every hosted site's
// settled state through the snapshot provider and rotates the log.
// The caller must have quiesced the whole mesh first (WaitIdle) —
// with in-flight work the provider will rightly refuse.
//
// Per-site link state is keyed by destination site, which assumes the
// deployments this transport actually runs (one site per node, as the
// mesh and cmd/wfnet build them).
func (n *Node) Snapshot() error {
	if n.wal == nil {
		return fmt.Errorf("netwire: node %s has no WAL", n.cfg.ID)
	}
	n.mu.Lock()
	provider := n.snapProvider
	sites := make([]simnet.SiteID, 0, len(n.sites))
	for s := range n.sites {
		sites = append(sites, s)
	}
	n.mu.Unlock()
	if provider == nil {
		return fmt.Errorf("netwire: node %s has no snapshot provider", n.cfg.ID)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	states := map[string][]byte{}
	for _, s := range sites {
		blob, err := provider(s)
		if err != nil {
			return fmt.Errorf("netwire: snapshot site %s: %w", s, err)
		}
		if blob != nil {
			states[string(s)] = blob
		}
	}
	if err := n.wal.Snapshot(n.meta(), states); err != nil {
		return fmt.Errorf("netwire: snapshot node %s: %w", n.cfg.ID, err)
	}
	return nil
}

// Checkpoint appends one on-demand watermark checkpoint record and
// forces it to disk.  Graceful shutdown paths call it after settling
// so a restart recovers from the watermarks instead of replaying the
// whole tail; unlike Snapshot it needs no provider and no global
// quiescence (the meta is a monotone watermark, not a state capture).
func (n *Node) Checkpoint() error {
	if n.wal == nil {
		return nil
	}
	blob, err := json.Marshal(n.meta())
	if err != nil {
		return err
	}
	return n.wal.WaitDurable(n.wal.Append(wal.Record{Kind: wal.KCkpt, Payload: blob}))
}

// checkpointLoop periodically appends a watermark checkpoint record.
func (n *Node) checkpointLoop() {
	t := time.NewTicker(n.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-n.ckptStop:
			return
		case <-t.C:
			blob, err := json.Marshal(n.meta())
			if err != nil {
				continue
			}
			n.wal.Append(wal.Record{Kind: wal.KCkpt, Payload: blob})
		}
	}
}
