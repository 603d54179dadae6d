// Package simnet is a deterministic discrete-event network simulator:
// the substrate on which the distributed scheduler's actors exchange
// messages.
//
// The paper's prototype ran on a heterogeneous distributed testbed; we
// substitute a simulated network so that every experiment is
// reproducible bit-for-bit (see DESIGN.md, Substitutions).  The
// simulator provides:
//
//   - named sites, each with a message handler,
//   - configurable per-link latency with seeded jitter, so remote
//     messages genuinely race,
//   - a global logical clock and a total delivery order (time, then
//     sequence number), giving the "consistent view of the temporal
//     order of events" the paper's execution mechanism requires,
//   - message statistics (total, remote, per-site) for the benchmark
//     harness.
//
// The simulator is single-goroutine by design: determinism is a
// feature of the experiments, not a concurrency shortcut.  The Network
// type is not safe for concurrent use.
package simnet

import (
	"fmt"
	"math/rand/v2"
)

// Time is simulated time in microseconds.
type Time int64

// SiteID names a site.
type SiteID string

// Message is a unit of communication between sites.
type Message struct {
	From, To SiteID
	// Payload is the protocol-specific content.
	Payload any
	// Sent and Deliver are the send and delivery times.
	Sent, Deliver Time
}

// Handler consumes messages delivered to a site.
type Handler interface {
	// Handle processes a delivered message.  It may send further
	// messages and schedule timers via the Network.
	Handle(n *Network, m Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(n *Network, m Message)

// Handle implements Handler.
func (f HandlerFunc) Handle(n *Network, m Message) { f(n, m) }

// LatencyModel computes message latencies.
type LatencyModel struct {
	// Local is the latency between co-located endpoints (same site).
	Local Time
	// Remote is the base latency between distinct sites.
	Remote Time
	// Jitter is the maximum additional random latency for remote
	// messages (uniform, seeded).
	Jitter Time
}

// DefaultLatency models a LAN: 5µs local, 500µs remote ±200µs.
func DefaultLatency() LatencyModel {
	return LatencyModel{Local: 5, Remote: 500, Jitter: 200}
}

// Stats aggregates message counts.
type Stats struct {
	// Messages is the total number of messages delivered.
	Messages int
	// Remote counts messages between distinct sites.
	Remote int
	// PerSite counts deliveries per destination site.
	PerSite map[SiteID]int
	// PeakQueue is the largest number of in-flight messages observed.
	PeakQueue int
	// Dropped, Duplicated, Deduped, Retransmits count fault-plan
	// activity: frames lost on the wire, extra copies injected, copies
	// suppressed by receiver-side dedup, and link-layer retries.
	Dropped, Duplicated, Deduped, Retransmits int
}

// Network is the simulator.  Create with New, register sites, inject
// initial messages or timers, then Run.  Inside, a site is its index
// in sites, which Send finds by a scan: no delivery hashes a name.
type Network struct {
	now   Time
	queue eventQueue
	// slab holds the queued messages; free lists its vacant slots.
	slab []inFlight
	free []int32
	// sites are the registered sites and any unregistered sender.
	sites []site
	// rng draws jitter from pcg, seeded by New and Reset.
	pcg     rand.PCG
	rng     *rand.Rand
	latency LatencyModel
	stats   Stats // PerSite stays nil; see Stats
	seq     uint64
	// occurrences issues globally ordered occurrence indices.
	occurrences int64
	// fault, when set, subjects remote messages to the chaos schedule;
	// the simulator then also models the reliable link layer (per-link
	// sequence numbers, receiver dedup, scheduled retransmissions) so
	// outcomes are preserved — exactly the contract netwire implements
	// over real sockets.
	fault *FaultPlan
}

type site struct {
	id         SiteID
	h          Handler
	registered bool
	delivered  int
	out        []link // by destination, under a fault plan
}

// inFlight is a queued message; a nonzero wireSeq marks a frame of the
// fault plan's reliable link, which the receiver deduplicates.
type inFlight struct {
	payload  any
	sent     Time
	wireSeq  uint64
	from, to int32
}

// link is one directed link's reliable-layer state: the last sequence
// number sent, the highest delivered, and the last release time.
type link struct {
	sent, delivered uint64
	last            Time
}

// New creates a network with the given latency model and deterministic
// seed.
func New(lat LatencyModel, seed int64) *Network {
	n := &Network{latency: lat}
	n.pcg.Seed(uint64(seed), 0)
	n.rng = rand.New(&n.pcg)
	return n
}

// Reset empties the network for a run at seed on the same latency
// model and fault plan; only its backing arrays survive.
func (n *Network) Reset(seed int64) {
	clear(n.slab)
	clear(n.sites)
	n.queue, n.slab, n.free, n.sites = n.queue[:0], n.slab[:0], n.free[:0], n.sites[:0]
	n.now, n.seq, n.occurrences, n.stats = 0, 0, 0, Stats{}
	n.pcg.Seed(uint64(seed), 0)
}

// index returns the site's index, listing a new id as an unregistered
// sender.  A destination must be registered: a message to nowhere
// panics where it is sent.
func (n *Network) index(id SiteID, dest bool) int32 {
	i := 0
	for i < len(n.sites) && n.sites[i].id != id {
		i++
	}
	if i == len(n.sites) {
		n.sites = append(n.sites, site{id: id})
	}
	if dest && !n.sites[i].registered {
		panic(fmt.Sprintf("simnet: send to unknown site %q", id))
	}
	return int32(i)
}

// AddSite registers a site.  Registering the same id twice panics: it
// is always a programming error.
func (n *Network) AddSite(id SiteID, h Handler) {
	s := &n.sites[n.index(id, false)]
	if s.registered {
		panic(fmt.Sprintf("simnet: duplicate site %q", id))
	}
	s.h, s.registered = h, true
}

// Handler returns the site's handler, nil for an unregistered site.
func (n *Network) Handler(id SiteID) Handler { return n.sites[n.index(id, false)].h }

// Now returns the current simulated time.
func (n *Network) Now() Time { return n.now }

// NextOccurrence issues the next global occurrence index.  Event
// occurrences are stamped with these to provide the total temporal
// order the guard evaluation relies on.
func (n *Network) NextOccurrence() int64 {
	n.occurrences++
	return n.occurrences
}

// Clock reads the current occurrence bound without advancing it.
func (n *Network) Clock() int64 { return n.occurrences }

// SetFaultPlan installs a chaos schedule; nil restores the reliable
// network.  Must be called before the run starts.
func (n *Network) SetFaultPlan(fp *FaultPlan) { n.fault = fp }

// link returns the state of the link from→to.
func (n *Network) link(from, to int32) *link {
	s := &n.sites[from]
	if int(to) >= len(s.out) {
		s.out = append(s.out, make([]link, int(to)+1-len(s.out))...)
	}
	return &s.out[to]
}

// Send enqueues a message from one site to a registered one; latency
// follows the model (deterministic given the seed).  Under a fault
// plan, remote messages additionally pass through the modelled reliable
// link: the chaos verdicts may drop, duplicate, delay, or reorder
// individual transmission attempts, and the link retries dropped
// frames with exponential backoff until one gets through.
func (n *Network) Send(from, to SiteID, payload any) {
	t, f := n.index(to, true), n.index(from, false)
	var lat Time
	if f == t {
		lat = n.latency.Local
	} else {
		lat = n.latency.Remote
		if n.latency.Jitter > 0 {
			lat += Time(n.rng.Int64N(int64(n.latency.Jitter) + 1))
		}
	}
	m := inFlight{payload: payload, sent: n.now, from: f, to: t}
	if n.fault == nil || f == t {
		n.push(n.now+lat, m)
		return
	}
	lk := n.link(f, t)
	lk.sent++
	m.wireSeq = lk.sent
	deliver := func(at Time) {
		// FIFO release: frames of one link reach the handler in
		// sequence order, later-sent frames queueing behind delayed or
		// retransmitted predecessors exactly as the wire transport's
		// in-order receive buffer makes them (head-of-line blocking,
		// as on a real TCP stream).
		lk.last = max(at, lk.last+1)
		n.push(lk.last, m)
	}
	at := n.now
	for attempt := 0; ; attempt++ {
		if heal, blocked := n.fault.Blocked(from, to, at); blocked {
			// The frame sits in the link's outbound queue until the
			// partition heals, then the next attempt goes out.
			at = heal
			n.stats.Retransmits++
			continue
		}
		v := n.fault.VerdictFor(from, to, m.wireSeq, attempt)
		switch {
		case v.Drop:
			n.stats.Dropped++
			n.stats.Retransmits++
			at += n.fault.RTOFor(attempt)
		case v.Dup:
			n.stats.Duplicated++
			deliver(at + lat)
			deliver(at + lat + lat/2 + 1)
			return
		default:
			deliver(at + lat + v.Extra)
			return
		}
	}
}

// After schedules a timer: the payload is delivered to the site after
// the delay.
func (n *Network) After(id SiteID, delay Time, payload any) {
	s := n.index(id, true)
	n.push(n.now+delay, inFlight{payload: payload, sent: n.now, from: s, to: s})
}

func (n *Network) push(at Time, m inFlight) {
	slot := int32(len(n.slab))
	if k := len(n.free); k > 0 {
		slot, n.free = n.free[k-1], n.free[:k-1]
		n.slab[slot] = m
	} else {
		n.slab = append(n.slab, m)
	}
	n.queue.push(event{at, n.seq, slot})
	n.seq++
	n.stats.PeakQueue = max(n.stats.PeakQueue, len(n.queue))
}

// Step delivers the next message.  It reports false when the queue is
// empty.
func (n *Network) Step() bool {
	if len(n.queue) == 0 {
		return false
	}
	e := n.queue.pop()
	if e.deliver < n.now {
		panic("simnet: time went backwards")
	}
	n.now = e.deliver
	p := n.slab[e.slot]
	n.slab[e.slot] = inFlight{} // release the payload
	n.free = append(n.free, e.slot)
	if p.wireSeq > 0 {
		// The reliable link's receiver dedup: FIFO release delivers a
		// link's frames in send order, so a copy numbered at most the
		// highest delivered is acknowledged and discarded.
		lk := n.link(p.from, p.to)
		if p.wireSeq <= lk.delivered {
			n.stats.Deduped++
			return true
		}
		lk.delivered = p.wireSeq
	}
	n.stats.Messages++
	if p.from != p.to {
		n.stats.Remote++
	}
	s := &n.sites[p.to]
	s.delivered++
	s.h.Handle(n, Message{From: n.sites[p.from].id, To: s.id, Payload: p.payload, Sent: p.sent, Deliver: e.deliver})
	return true
}

// Run processes messages until quiescence or until maxSteps deliveries
// (0 = unlimited).  It returns the number of deliveries.
func (n *Network) Run(maxSteps int) int {
	steps := 0
	for n.Step() {
		steps++
		if maxSteps > 0 && steps >= maxSteps {
			break
		}
	}
	return steps
}

// Stats returns a copy of the accumulated statistics.
func (n *Network) Stats() Stats {
	st := n.stats
	st.PerSite = make(map[SiteID]int, len(n.sites))
	for _, s := range n.sites {
		if s.delivered > 0 {
			st.PerSite[s.id] = s.delivered
		}
	}
	return st
}

// Idle reports whether no messages are in flight.
func (n *Network) Idle() bool { return len(n.queue) == 0 }

// event is a queue entry: delivery time, push sequence number, and the
// slab slot of its message.
type event struct {
	deliver Time
	seq     uint64
	slot    int32
}

// eventQueue is a min-heap ordered by (deliver, seq); the sequence
// number makes delivery deterministic for simultaneous messages.  Its
// entries are small and the messages stay in the slab, and the sift
// operations are hand-rolled rather than going through container/heap,
// which would box every entry on each push and pop — this queue sits
// under every simulated message of every engine instance.  Pop order
// is the unique (deliver, seq) total order, so determinism does not
// depend on the heap's internal shape.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].deliver != q[j].deliver {
		return q[i].deliver < q[j].deliver
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	*q = h
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < len(h) && h.less(left, smallest) {
			smallest = left
		}
		if right < len(h) && h.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}
