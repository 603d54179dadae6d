// Package arun executes compiled workflows over an asynchronous
// transport — a loopback TCP mesh or a multi-process cluster
// (internal/netwire) — and, crucially, over the deterministic simulator through the same
// code path, so a simulated run is a differential oracle for the real
// ones.
//
// The runner installs one actor per event at its placed site
// (Plan.Install, which internal/sched's distributed scheduler also
// hosts on the simulator), subscribes a driver site to every event,
// and then drives the spec's agent scripts: one
// attempt at a time, in the deterministic merge order of the agents'
// think times, quiescing the transport between attempts (serial) or
// waiting only for each attempt's own decision or for the transport
// to go idle (pipelined).  Every transport reports idleness both as a
// state and as an event, so that wait is one select.  After the agents
// drain, the same drive loop closes the run out to a maximal trace
// with the simulator harness's complement-then-positive passes; an
// externally-fed run (Attempt, then Finish) is that loop with no
// scripts.  The final outcome — which events occurred, which were
// left unresolved, whether the trace satisfies the workflow — is then
// comparable across transports even though wall-clock interleavings
// differ; the chaos tests in internal/netwire assert equality under
// seeded fault plans.
package arun

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/actor"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/gprog"
	"repro/internal/quiesce"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/symtab"
)

// DefaultDriver is the site the runner itself occupies: attempts
// originate here and announcements/decisions are observed here.
const DefaultDriver simnet.SiteID = "ctl"

// Transport is the asynchronous substrate the runner installs actors
// on.  Register must be called for every hosted site before messages
// flow.  WaitIdle blocks until no messages are in flight or the timeout
// elapses.  IdleNow and IdleWait are the same idle state as an event:
// IdleNow reads it, and IdleWait registers a waiter and returns a
// channel that closes when the transport may have gone idle, plus a
// cancel that must be called once the wait is over.  A transition
// that completed before IdleWait registered need not close the
// channel, so a waiter re-checks IdleNow after taking it.
type Transport interface {
	actor.Net
	Register(site simnet.SiteID, h func(n actor.Net, payload any))
	WaitIdle(timeout time.Duration) bool
	IdleNow() bool
	IdleWait() (idle <-chan struct{}, cancel func())
	// UseSymbols hands the transport the plan's symbol table before any
	// handler is registered.  A transport that decodes payloads from
	// bytes resolves their symbol ids with it; one that carries
	// payloads in memory has nothing to resolve and ignores it.
	UseSymbols(tab *symtab.Table)
	Close()
}

// Outcome is the comparable result of a run: the run's names for
// callers, built once when the run ends.
type Outcome struct {
	// Trace lists the occurred keys (either polarity) in
	// occurrence-index order.
	Trace []string
	// At holds each Trace entry's occurrence index.  Indices are
	// transport-specific; the key set is not.
	At []int64
	// Satisfied reports whether the realized trace satisfies every
	// dependency.
	Satisfied bool
	// Unresolved lists base events with neither polarity occurred.
	Unresolved []string
	// Decisions and Announcements count driver-observed messages.
	Decisions, Announcements int
}

// Fingerprint is a transport-independent summary: the occurred key
// set, the unresolved set, and satisfaction.  Two runs of the same
// spec agree on it iff they reached the same final state.
func (o *Outcome) Fingerprint() string {
	keys := slices.Clone(o.Trace)
	sort.Strings(keys)
	return fmt.Sprintf("occurred{%s} unresolved{%s} satisfied=%v",
		strings.Join(keys, ","), strings.Join(o.Unresolved, ","), o.Satisfied)
}

// Runner hosts one run of a plan on a transport and drives it.
type Runner struct {
	tr        Transport
	plan      *Plan
	timeout   time.Duration
	pipelined bool
	satCache  *SatCache

	// set is this runner's installed instance: its site hosts, retained
	// so StateDigest can walk every actor deterministically, and its
	// actors in plan order.
	set *Instance

	mu sync.Mutex
	// obsState is what the driver observed, guarded by mu.
	*obsState
	decGate quiesce.Gate

	// timer bounds each per-attempt wait (awaitAttempt); it is created
	// on the first wait and re-armed for every later one.
	timer *time.Timer
}

// obsState is the driver's view of one run, indexed by symbol id: the
// occurrences, the decisions not yet consumed, and per-symbol decision
// counts, plus the drive loop's per-run marks.  A Scratch recycles it
// whole, so a run allocates none of it.
type obsState struct {
	occ []occRec
	// fired lists the occurred ids in arrival order.  Its capacity is
	// the plan's id count, so appends never move it.
	fired []symtab.ID
	dec   []decRec
	// decGen counts decision arrivals per id; pipelined attempts
	// snapshot it before submitting and complete when it moves, which
	// is what "per-attempt completion" means.
	decGen []uint64
	anns   int
	decs   int
	// tried marks, per base, the closeout's attempts — triedComp and
	// triedPos — and compSettled, a settle seen since the complement's.
	tried  []uint8
	agents []agState
}

const (
	triedComp uint8 = 1 << iota
	triedPos
	compSettled
)

type occRec struct {
	at int64
	ok bool
}

type decRec struct {
	accepted bool
	at       int64
	ok       bool
}

// reset empties the state for a plan of nids ids and nbases bases.
func (o *obsState) reset(nids, nbases, nagents int) {
	if len(o.occ) != nids {
		o.occ = make([]occRec, nids)
		o.dec = make([]decRec, nids)
		o.decGen = make([]uint64, nids)
		o.fired = make([]symtab.ID, 0, nids)
	} else {
		clear(o.occ)
		clear(o.dec)
		clear(o.decGen)
		o.fired = o.fired[:0]
	}
	o.anns, o.decs = 0, 0
	if cap(o.tried) < nbases {
		o.tried = make([]uint8, nbases)
	}
	o.tried = o.tried[:nbases]
	clear(o.tried)
	if cap(o.agents) < nagents {
		o.agents = make([]agState, 0, nagents)
	}
	o.agents = o.agents[:0]
}

// record notes an occurrence, keeping the first report of each id.
func (o *obsState) record(id symtab.ID, at int64) {
	o.anns++
	if !o.occ[id].ok {
		o.occ[id] = occRec{at: at, ok: true}
		o.fired = append(o.fired, id)
	}
}

// decided notes a decision.
func (o *obsState) decided(d actor.DecisionMsg) {
	o.decs++
	o.dec[d.ID] = decRec{accepted: d.Accepted, at: d.At, ok: true}
	o.decGen[d.ID]++
}

// Sites returns the sorted distinct actor sites of a spec: the
// placement of every alphabet event plus every agent-attempted extra.
// cmd/wfnet partitions this list over its worker processes.
func Sites(sp *spec.Spec) []simnet.SiteID {
	pl := sp.Placement()
	seen := map[simnet.SiteID]bool{}
	var out []simnet.SiteID
	add := func(b algebra.Symbol) {
		site := pl.SiteFor(b)
		if !seen[site] {
			seen[site] = true
			out = append(out, site)
		}
	}
	bases, extras := alphabetAndExtras(sp)
	for _, b := range bases {
		add(b)
	}
	for _, x := range extras {
		add(x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// alphabetAndExtras splits the attempted universe: the workflow
// alphabet's bases (sorted) and the out-of-alphabet bases the agent
// scripts mention, which get unconstrained ⊤-guard actors.
func alphabetAndExtras(sp *spec.Spec) (bases, extras []algebra.Symbol) {
	bases = sp.Workflow.Alphabet().Bases()
	sort.Slice(bases, func(i, j int) bool { return bases[i].Less(bases[j]) })
	known := map[string]bool{}
	for _, b := range bases {
		known[b.Key()] = true
	}
	var walk func(steps []spec.Step)
	walk = func(steps []spec.Step) {
		for _, st := range steps {
			b := st.Sym.Base()
			if !known[b.Key()] {
				known[b.Key()] = true
				extras = append(extras, b)
			}
			walk(st.OnReject)
		}
	}
	for _, ag := range sp.Agents {
		walk(ag.Steps)
	}
	sort.Slice(extras, func(i, j int) bool { return extras[i].Less(extras[j]) })
	return bases, extras
}

// guardSpecFor assembles a polarity's guard spec (with the consensus
// elimination facts, as the distributed scheduler defaults to).
func guardSpecFor(c *core.Compiled, s algebra.Symbol) gprog.GuardInput {
	gs := gprog.GuardInput{Guard: c.GuardOf(s)}
	if eg, ok := c.Guards[s.Key()]; ok && len(eg.LocalNeg) > 0 {
		gs.LocalNeg = map[string]algebra.Symbol{}
		for key := range eg.LocalNeg {
			f, err := algebra.ParseSymbol(key)
			if err != nil {
				panic(err)
			}
			gs.LocalNeg[key] = f
		}
	}
	return gs
}

// siteHost demultiplexes one site's messages among its actors, in
// sorted actor order so broadcast fan-out is deterministic across
// transports.
type siteHost struct {
	site simnet.SiteID
	tab  *symtab.Table
	// byEvent indexes the instance's hosted actors by event (shared by
	// the instance's hosts); order lists this site's actors sorted by
	// key.
	byEvent []*actor.Actor
	order   []*actor.Actor
	// handler is deliver as the transport registers it, bound once so
	// a recycled host registers without allocating.
	handler func(actor.Net, any)
}

// actor returns this site's actor for the id's event.
func (h *siteHost) actor(id symtab.ID) *actor.Actor {
	if ev := id.Event(); ev > 0 && ev < len(h.byEvent) {
		if a := h.byEvent[ev]; a != nil && a.Site() == h.site {
			return a
		}
	}
	panic(fmt.Sprintf("arun: site %s has no actor for symbol id %d", h.site, id))
}

func (h *siteHost) deliver(n actor.Net, p any) {
	switch msg := p.(type) {
	case actor.AttemptMsg:
		h.actor(msg.ID).Deliver(n, p)
	case actor.AnnounceMsg:
		for _, a := range h.order {
			a.Deliver(n, p)
		}
	case actor.NudgeMsg:
		for _, a := range h.order {
			a.Deliver(n, p)
		}
	case actor.InquireMsg:
		h.actor(h.tab.MustLookup(msg.Target)).Deliver(n, p)
	case actor.InquireReplyMsg:
		h.actor(h.tab.MustLookup(msg.Requester)).Deliver(n, p)
	case actor.ReleaseMsg:
		h.actor(h.tab.MustLookup(msg.Target)).Deliver(n, p)
	default:
		panic(fmt.Sprintf("arun: site %s: unexpected payload %T", h.site, p))
	}
}

// onDriverMsg records announcements and decisions arriving at the
// driver site.  It runs on a transport goroutine, concurrently with
// the drive loop.
func (r *Runner) onDriverMsg(_ actor.Net, p any) {
	pulse := false
	r.mu.Lock()
	switch m := p.(type) {
	case actor.AnnounceMsg:
		r.record(m.ID, m.At)
	case actor.DecisionMsg:
		r.decided(m)
		pulse = true
	}
	// Anything else addressed to the driver is protocol chatter the
	// runner does not participate in; drop it.
	r.mu.Unlock()
	if pulse {
		r.decGate.Pulse()
	}
}

// hookFire observes an occurrence through the actor hook — the
// observation mode plans built without Observe use, sparing the
// driver-bound announcement traffic entirely.
func (r *Runner) hookFire(ann actor.AnnounceMsg, _ simnet.Time) {
	r.mu.Lock()
	r.record(ann.ID, ann.At)
	r.mu.Unlock()
}

// hookDecision observes a decision through the actor hook.
func (r *Runner) hookDecision(d actor.DecisionMsg) {
	r.mu.Lock()
	r.decided(d)
	r.mu.Unlock()
	r.decGate.Pulse()
}

// takeDecision consumes the arrived decision for id, if any, and
// reports whether it accepted.
func (r *Runner) takeDecision(id symtab.ID) (accepted, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.dec[id]
	r.dec[id] = decRec{}
	return d.accepted, d.ok
}

// resolved reports whether either polarity of the base id occurred.
func (r *Runner) resolved(base symtab.ID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.occ[base].ok || r.occ[base^1].ok
}

// publishCounts adds the hosted actors' protocol tallies since the
// last publication to the process-wide actor.* counters: once per
// drive, after its closing quiescence, so no delivery is running on
// the actors it reads.
func (r *Runner) publishCounts() {
	var c actor.Counts
	for _, a := range r.set.actors {
		if a != nil {
			c.Add(a.TakeCounts())
		}
	}
	c.Publish()
}

// StateDigest serializes the run's complete deterministic state: every
// hosted actor's digest (in sorted site and actor order) plus the
// driver's observations.  The model checker's interleaving
// exploration (internal/mc) combines it with the transport's queued
// messages to prune delivery-order branches that reconverge.  The
// announcement/decision tallies are deliberately excluded — they are
// reporting counters no future step reads.
func (r *Runner) StateDigest() string {
	var b strings.Builder
	for _, site := range r.set.sites {
		for _, a := range r.set.hosts[site].order {
			b.WriteString(a.StateDigest())
			b.WriteString("\n")
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tab := r.plan.tab
	byKey := func(pick func(symtab.ID) bool) []symtab.ID {
		var ids []symtab.ID
		for id := symtab.ID(2); int(id) < tab.Len(); id++ {
			if pick(id) {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return tab.Key(ids[i]) < tab.Key(ids[j]) })
		return ids
	}
	for _, id := range byKey(func(id symtab.ID) bool { return r.occ[id].ok }) {
		fmt.Fprintf(&b, "occ:%s@%d;", tab.Key(id), r.occ[id].at)
	}
	for _, id := range byKey(func(id symtab.ID) bool { return r.dec[id].ok }) {
		fmt.Fprintf(&b, "dec:%s=%v@%d;", tab.Key(id), r.dec[id].accepted, r.dec[id].at)
	}
	for _, id := range byKey(func(id symtab.ID) bool { return r.decGen[id] != 0 }) {
		fmt.Fprintf(&b, "gen:%s=%d;", tab.Key(id), r.decGen[id])
	}
	return b.String()
}

// submit sends one attempt from the driver.
func (r *Runner) submit(id symtab.ID, forced bool) error {
	site := r.plan.dir.Site(id)
	if site == "" {
		return fmt.Errorf("arun: no actor placed for event %s", r.plan.tab.Sym(id.Base()))
	}
	f := 0
	if forced {
		f = 1
	}
	r.tr.Send(DefaultDriver, site, r.plan.attempts[f][id])
	return nil
}

// attempt submits one attempt from the driver.  In the default mode
// it then quiesces the whole transport — the serial, lockstep drive.
// In pipelined mode it only waits for this attempt's own decision
// (or for the transport to park), which is what lets many attempts —
// and, in internal/engine, many instances — overlap.
func (r *Runner) attempt(id symtab.ID, forced bool) error {
	if !r.pipelined {
		if err := r.submit(id, forced); err != nil {
			return err
		}
		if !r.tr.WaitIdle(r.timeout) {
			return fmt.Errorf("arun: transport did not quiesce after attempting %s", r.plan.tab.Key(id))
		}
		return nil
	}
	r.mu.Lock()
	start := r.decGen[id]
	r.mu.Unlock()
	if err := r.submit(id, forced); err != nil {
		return err
	}
	return r.awaitAttempt(id, start)
}

// awaitAttempt blocks until the attempt's decision count moves past
// the pre-send snapshot, the transport parks with the attempt still
// undecided (held behind an inquiry — the drive loop moves on and a
// later decision folds in), or the deadline passes.
func (r *Runner) awaitAttempt(id symtab.ID, start uint64) error {
	moved := func() bool {
		r.mu.Lock()
		m := r.decGen[id] != start
		r.mu.Unlock()
		return m
	}
	timeout := r.startTimer()
	defer r.stopTimer()
	for !moved() {
		// Take the channels first, then re-check: a pulse between the
		// check and the wait closes a channel we already hold, so no
		// wakeup is lost.  The IdleNow read is required, not a
		// shortcut: a zero-transition that completed before IdleWait
		// registered need not close the channel.
		ch := r.decGate.Chan()
		idle, cancel := r.tr.IdleWait()
		if moved() || r.tr.IdleNow() {
			cancel()
			return nil
		}
		select {
		case <-ch:
		case <-idle:
		case <-timeout:
			cancel()
			return fmt.Errorf("arun: no decision for %s before timeout", r.plan.tab.Key(id))
		}
		cancel()
	}
	return nil
}

// startTimer arms the runner's one attempt timer for a wait.  Only the
// drive goroutine waits, so one timer, stopped after every wait, serves
// them all.
func (r *Runner) startTimer() <-chan time.Time {
	if r.timer == nil {
		r.timer = time.NewTimer(r.timeout)
	} else {
		r.timer.Reset(r.timeout)
	}
	return r.timer.C
}

// stopTimer disarms the attempt timer and drains a tick that fired
// unread, so the next startTimer cannot see a stale expiry.
func (r *Runner) stopTimer() {
	if !r.timer.Stop() {
		select {
		case <-r.timer.C:
		default:
		}
	}
}

// agState is one agent script mid-drive.  Its queue is a view of the
// plan's lowered steps, which the drive only ever reslices.
type agState struct {
	queue   []step
	waiting symtab.ID // outstanding attempt's id, None if none
	// settled: a settle ran with the outstanding attempt undecided.
	settled bool
	clock   simnet.Time
}

// Run drives the agents to completion (or stall), closes the run out
// to a maximal trace, and returns the outcome.
func (r *Runner) Run() (*Outcome, error) { return r.drive(r.plan.scripts) }

// drive is the one drive loop: it runs the scripts (none, for an
// externally-fed run), closes the run out, settles the transport and
// reads the outcome.
func (r *Runner) drive(scripts []script) (*Outcome, error) {
	agents := r.agents[:0]
	budget := 64
	for _, sc := range scripts {
		agents = append(agents, agState{queue: sc.steps})
		budget += 8 * len(sc.steps)
	}
	r.agents = agents

	// fold consumes arrived decisions for outstanding attempts.
	fold := func() bool {
		changed := false
		for i := range agents {
			ag := &agents[i]
			if ag.waiting == symtab.None {
				continue
			}
			accepted, ok := r.takeDecision(ag.waiting)
			if !ok {
				continue
			}
			ag.waiting = symtab.None
			if accepted {
				ag.queue = ag.queue[1:]
			} else {
				ag.queue = ag.queue[0].onReject
			}
			changed = true
		}
		return changed
	}
	// pick selects the next ready agent in the deterministic merge
	// order: smallest virtual time of its head step, then agent order.
	pick := func() *agState {
		var best *agState
		var bestAt simnet.Time
		for i := range agents {
			ag := &agents[i]
			if ag.waiting != symtab.None || len(ag.queue) == 0 {
				continue
			}
			at := ag.clock + ag.queue[0].think
			if best == nil || at < bestAt {
				best, bestAt = ag, at
			}
		}
		return best
	}
	// driveAgents pumps attempts until every agent is done or parked
	// (its attempt neither accepted nor rejected yet).
	driveAgents := func() (bool, error) {
		progress := false
		for {
			if fold() {
				progress = true
				continue
			}
			ag := pick()
			if ag == nil {
				return progress, nil
			}
			if budget--; budget < 0 {
				return progress, fmt.Errorf("arun: agent drive did not converge")
			}
			st := &ag.queue[0]
			ag.clock += st.think
			ag.waiting, ag.settled = st.id, false
			if err := r.attempt(st.id, st.forced); err != nil {
				return progress, err
			}
			progress = true
		}
	}

	// The main loop interleaves agent progress with closeout passes:
	// complements of unresolved events first ("this will never occur"),
	// then — where the complement is refused, i.e. the event is
	// obligated — the events themselves.  sched.runCloseout makes the
	// same passes, but only after its agents have drained, and it sends
	// a whole pass before running the simulator to idle.  This loop
	// attempts one event at a time between agent steps, and a pipelined
	// drive also waits out the settle rule (unsettled, below) before it
	// complements a base an agent is parked on or escalates one to its
	// positive attempt.
	bases := r.plan.baseIDs
	allResolved := func() bool {
		for _, b := range bases {
			if !r.resolved(b) {
				return false
			}
		}
		return true
	}
	agentsDone := func() bool {
		for i := range agents {
			if agents[i].waiting != symtab.None || len(agents[i].queue) > 0 {
				return false
			}
		}
		return true
	}
	tried := r.tried
	// settle establishes one full quiescence and folds in what it
	// brought; it marks every attempt still undecided after it.
	settle := func() bool {
		r.tr.WaitIdle(r.timeout)
		folded := fold()
		for i := range tried {
			if tried[i]&triedComp != 0 {
				tried[i] |= compSettled
			}
		}
		for i := range agents {
			agents[i].settled = agents[i].waiting != symtab.None
		}
		return folded
	}
	// A pipelined attempt completes when its decision arrives, while
	// the announcements it caused may still be in flight: a parked
	// attempt is pending work, not a refusal.  So a pipelined closeout
	// neither complements a base an agent's undecided attempt is parked
	// on, nor escalates a base from complement to positive, until one
	// settle has run with that attempt still undecided.  After a serial
	// attempt the transport is already idle, and neither waits.
	unsettled := func(i int, b symtab.ID) bool {
		if !r.pipelined {
			return false
		}
		if tried[i]&triedComp != 0 {
			return tried[i]&compSettled == 0
		}
		for j := range agents {
			if agents[j].waiting.Base() == b && !agents[j].settled {
				return true
			}
		}
		return false
	}
	for pass := 0; pass < 2*len(bases)+4; pass++ {
		progress, err := driveAgents()
		if err != nil {
			return nil, err
		}
		waiting := false
		for i, b := range bases {
			if r.resolved(b) || tried[i]&triedPos != 0 {
				continue
			}
			if unsettled(i, b) {
				waiting = true
				continue
			}
			if tried[i]&triedComp == 0 {
				tried[i] |= triedComp
				err = r.attempt(b.Complement(), false)
			} else {
				tried[i] |= triedPos
				err = r.attempt(b, false)
			}
			if err != nil {
				return nil, err
			}
			progress = true
		}
		if (allResolved() && agentsDone()) || !progress {
			// A pipelined drive can appear stalled or done while
			// decisions and announcements are still in flight: settle
			// with one full quiescence, and resume if anything new folds
			// in, the resolution picture changed, or a closeout attempt
			// was waiting for this settle.  After a serial attempt the
			// transport is already idle, so this is a no-op.
			if settle() {
				continue
			}
			if !(allResolved() && agentsDone()) && (progress || waiting) {
				continue
			}
			break
		}
	}
	if _, err := driveAgents(); err != nil {
		return nil, err
	}
	// The closing quiescence: per-attempt completion never proved the
	// transport empty, so establish it once before reading the outcome.
	if !r.tr.WaitIdle(r.timeout) {
		return nil, fmt.Errorf("arun: transport did not quiesce at end of run")
	}
	r.publishCounts()
	return r.outcome(), nil
}

// outcome snapshots the driver's observations.  The fires arrive in
// occurrence-index order on the simulator and almost so on a mesh
// (hooks of concurrent sites may report out of order), so one
// insertion pass places the trace.
func (r *Runner) outcome() *Outcome {
	r.mu.Lock()
	defer r.mu.Unlock()
	fired := r.fired
	for i := 1; i < len(fired); i++ {
		for j := i; j > 0 && r.occ[fired[j]].at < r.occ[fired[j-1]].at; j-- {
			fired[j], fired[j-1] = fired[j-1], fired[j]
		}
	}
	tab := r.plan.tab
	out := &Outcome{
		Trace:         make([]string, len(fired)),
		At:            make([]int64, len(fired)),
		Decisions:     r.decs,
		Announcements: r.anns,
	}
	for i, id := range fired {
		out.Trace[i] = tab.Key(id)
		out.At[i] = r.occ[id].at
	}
	if r.satCache != nil {
		out.Satisfied = r.satCache.satisfied(r.plan, fired)
	} else {
		out.Satisfied = core.SatisfiesAll(r.plan.sp.Workflow, r.plan.trace(fired))
	}
	for _, b := range r.plan.baseIDs {
		if !r.occ[b].ok && !r.occ[b^1].ok {
			out.Unresolved = append(out.Unresolved, tab.Key(b))
		}
	}
	return out
}
