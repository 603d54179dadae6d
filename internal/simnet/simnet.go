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
	"sort"
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
	seq           uint64
	// wireSeq is the per-link sequence number of fault-plan-managed
	// frames; dedup applies, mirroring the wire transport's receiver.
	wireSeq uint64
	dedup   bool
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
// initial messages or timers, then Run.
type Network struct {
	now   Time
	queue eventQueue
	sites map[SiteID]Handler
	// rng is a PCG generator (two words of state) built lazily from
	// seed.  Every remote send under a jittered model such as
	// DefaultLatency draws from it, so each simulated instance seeds
	// one; zero-jitter models never draw and never build it.
	rng     *rand.Rand
	seed    int64
	latency LatencyModel
	stats   Stats
	seq     uint64
	// occurrences issues globally ordered occurrence indices.
	occurrences int64
	// fault, when set, subjects remote messages to the chaos schedule;
	// the simulator then also models the reliable link layer (per-link
	// sequence numbers, receiver dedup, scheduled retransmissions) so
	// outcomes are preserved — exactly the contract netwire implements
	// over real sockets.
	fault    *FaultPlan
	linkSeq  map[linkKey]uint64
	faultDel map[linkKey]map[uint64]bool
	// linkLast enforces per-link FIFO release: the reliable link
	// buffers out-of-order frames, so no frame is handed to a handler
	// before its predecessors on the same link (head-of-line blocking,
	// as on a real TCP stream).
	linkLast map[linkKey]Time
	// Trace, when set, observes every delivery in order (debugging and
	// replay diagnostics).
	Trace func(m Message)
}

// linkKey identifies a directed site pair.
type linkKey struct{ from, to SiteID }

// New creates a network with the given latency model and deterministic
// seed.
func New(lat LatencyModel, seed int64) *Network {
	return &Network{
		sites:   make(map[SiteID]Handler),
		seed:    seed,
		latency: lat,
		stats:   Stats{PerSite: make(map[SiteID]int)},
	}
}

// rand returns the seeded generator, constructing it on first use.
func (n *Network) rand() *rand.Rand {
	if n.rng == nil {
		n.rng = rand.New(rand.NewPCG(uint64(n.seed), 0))
	}
	return n.rng
}

// AddSite registers a site.  Registering the same id twice panics: it
// is always a programming error.
func (n *Network) AddSite(id SiteID, h Handler) {
	if _, dup := n.sites[id]; dup {
		panic(fmt.Sprintf("simnet: duplicate site %q", id))
	}
	n.sites[id] = h
}

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
func (n *Network) SetFaultPlan(fp *FaultPlan) {
	n.fault = fp
	if fp != nil && n.linkSeq == nil {
		n.linkSeq = map[linkKey]uint64{}
		n.faultDel = map[linkKey]map[uint64]bool{}
		n.linkLast = map[linkKey]Time{}
	}
}

// Send enqueues a message from one site to another; latency follows
// the model (deterministic given the seed).  Under a fault plan,
// remote messages additionally pass through the modelled reliable
// link: the chaos verdicts may drop, duplicate, delay, or reorder
// individual transmission attempts, and the link retries dropped
// frames with exponential backoff until one gets through.
func (n *Network) Send(from, to SiteID, payload any) {
	var lat Time
	if from == to {
		lat = n.latency.Local
	} else {
		lat = n.latency.Remote
		if n.latency.Jitter > 0 {
			lat += Time(n.rand().Int64N(int64(n.latency.Jitter) + 1))
		}
	}
	if n.fault == nil || from == to {
		n.push(Message{From: from, To: to, Payload: payload, Sent: n.now, Deliver: n.now + lat})
		return
	}
	lk := linkKey{from, to}
	n.linkSeq[lk]++
	seq := n.linkSeq[lk]
	deliver := func(at Time) {
		// FIFO release: frames of one link reach the handler in
		// sequence order, later-sent frames queueing behind delayed or
		// retransmitted predecessors exactly as the wire transport's
		// in-order receive buffer makes them.
		if last := n.linkLast[lk]; at <= last {
			at = last + 1
		}
		n.linkLast[lk] = at
		n.push(Message{From: from, To: to, Payload: payload, Sent: n.now,
			Deliver: at, wireSeq: seq, dedup: true})
	}
	t := n.now
	for attempt := 0; ; attempt++ {
		if heal, blocked := n.fault.Blocked(from, to, t); blocked {
			// The frame sits in the link's outbound queue until the
			// partition heals, then the next attempt goes out.
			t = heal
			n.stats.Retransmits++
			continue
		}
		v := n.fault.VerdictFor(from, to, seq, attempt)
		switch {
		case v.Drop:
			n.stats.Dropped++
			n.stats.Retransmits++
			t += n.fault.RTOFor(attempt)
		case v.Dup:
			n.stats.Duplicated++
			deliver(t + lat)
			deliver(t + lat + lat/2 + 1)
			return
		default:
			deliver(t + lat + v.Extra)
			return
		}
	}
}

// After schedules a timer: the payload is delivered to the site after
// the delay.
func (n *Network) After(site SiteID, delay Time, payload any) {
	n.push(Message{From: site, To: site, Payload: payload, Sent: n.now, Deliver: n.now + delay})
}

func (n *Network) push(m Message) {
	m.seq = n.seq
	n.seq++
	n.queue.push(m)
	if len(n.queue) > n.stats.PeakQueue {
		n.stats.PeakQueue = len(n.queue)
	}
}

// Step delivers the next message.  It reports false when the queue is
// empty.
func (n *Network) Step() bool {
	if len(n.queue) == 0 {
		return false
	}
	m := n.queue.pop()
	if m.Deliver < n.now {
		panic("simnet: time went backwards")
	}
	n.now = m.Deliver
	h, ok := n.sites[m.To]
	if !ok {
		panic(fmt.Sprintf("simnet: message to unknown site %q", m.To))
	}
	if m.dedup {
		lk := linkKey{m.From, m.To}
		seen := n.faultDel[lk]
		if seen == nil {
			seen = map[uint64]bool{}
			n.faultDel[lk] = seen
		}
		if seen[m.wireSeq] {
			// The receiver-side dedup of the reliable link: a duplicate
			// copy of an already-delivered frame is acknowledged and
			// discarded without reaching the handler.
			n.stats.Deduped++
			return true
		}
		seen[m.wireSeq] = true
	}
	n.stats.Messages++
	if m.From != m.To {
		n.stats.Remote++
	}
	n.stats.PerSite[m.To]++
	if n.Trace != nil {
		n.Trace(m)
	}
	h.Handle(n, m)
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
	cp := n.stats
	cp.PerSite = make(map[SiteID]int, len(n.stats.PerSite))
	for k, v := range n.stats.PerSite {
		cp.PerSite[k] = v
	}
	return cp
}

// Sites returns the registered site ids, sorted.
func (n *Network) Sites() []SiteID {
	out := make([]SiteID, 0, len(n.sites))
	for id := range n.sites {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Idle reports whether no messages are in flight.
func (n *Network) Idle() bool { return len(n.queue) == 0 }

// eventQueue is a min-heap ordered by (Deliver, seq); the sequence
// number makes delivery deterministic for simultaneous messages.  The
// sift operations are hand-rolled rather than going through
// container/heap, which would box every Message into an interface on
// each push and pop — this queue sits under every simulated message of
// every engine instance.  Pop order is the unique (Deliver, seq) total
// order, so determinism does not depend on the heap's internal shape.
type eventQueue []Message

func (q eventQueue) less(i, j int) bool {
	if q[i].Deliver != q[j].Deliver {
		return q[i].Deliver < q[j].Deliver
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(m Message) {
	*q = append(*q, m)
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

func (q *eventQueue) pop() Message {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = Message{} // release payload references
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
