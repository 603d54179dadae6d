// Package arun executes compiled workflows over an asynchronous
// transport — a loopback TCP mesh or a multi-process cluster
// (internal/netwire) — and, crucially, over the deterministic simulator through the same
// code path, so a simulated run is a differential oracle for the real
// ones.
//
// The runner installs one actor per event at its placed site (exactly
// as internal/sched does on the simulator), subscribes a driver site
// to every event, and then drives the spec's agent scripts: one
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
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/actor"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/quiesce"
	"repro/internal/simnet"
	"repro/internal/spec"
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
	Close()
}

// Outcome is the comparable result of a run.
type Outcome struct {
	// Occurred maps occurred symbol keys (either polarity) to their
	// occurrence indices.  Indices are transport-specific; the key set
	// is not.
	Occurred map[string]int64
	// Trace lists the occurred keys in occurrence-index order.
	Trace []string
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
	keys := make([]string, 0, len(o.Occurred))
	for k := range o.Occurred {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return fmt.Sprintf("occurred{%s} unresolved{%s} satisfied=%v",
		strings.Join(keys, ","), strings.Join(o.Unresolved, ","), o.Satisfied)
}

// Runner hosts one run of a plan on a transport and drives it.
type Runner struct {
	tr        Transport
	plan      *Plan
	driver    simnet.SiteID
	timeout   time.Duration
	pipelined bool
	satCache  *SatCache

	// hosts are this runner's installed site hosts, retained so
	// StateDigest can walk every actor deterministically.
	hosts map[simnet.SiteID]*siteHost

	mu  sync.Mutex
	occ map[string]occRec
	dec map[string]actor.DecisionMsg
	// decGen counts decision arrivals per symbol key; pipelined
	// attempts snapshot it before submitting and complete when it
	// moves, which is what "per-attempt completion" means.
	decGen  map[string]uint64
	decGate quiesce.Gate
	anns    int
	decs    int
}

type occRec struct {
	sym algebra.Symbol
	at  int64
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
func guardSpecFor(c *core.Compiled, s algebra.Symbol) actor.GuardSpec {
	gs := actor.GuardSpec{Guard: c.GuardOf(s)}
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
	site   simnet.SiteID
	actors map[string]*actor.Actor
	order  []string // sorted once all actors are added
}

func (h *siteHost) add(a *actor.Actor) {
	key := a.Base().Key()
	h.actors[key] = a
	h.order = append(h.order, key)
}

func (h *siteHost) one(n actor.Net, s algebra.Symbol, p any) {
	a, ok := h.actors[s.Base().Key()]
	if !ok {
		panic(fmt.Sprintf("arun: site %s has no actor for %s", h.site, s.Base()))
	}
	a.Deliver(n, p)
}

func (h *siteHost) deliver(n actor.Net, p any) {
	switch msg := p.(type) {
	case actor.AttemptMsg:
		h.one(n, msg.Sym, p)
	case actor.AnnounceMsg:
		for _, k := range h.order {
			h.actors[k].Deliver(n, p)
		}
	case actor.NudgeMsg:
		for _, k := range h.order {
			h.actors[k].Deliver(n, p)
		}
	case actor.InquireMsg:
		h.one(n, msg.Target, p)
	case actor.InquireReplyMsg:
		h.one(n, msg.Requester, p)
	case actor.ReleaseMsg:
		h.one(n, msg.Target, p)
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
		r.anns++
		if _, seen := r.occ[m.Sym.Key()]; !seen {
			r.occ[m.Sym.Key()] = occRec{sym: m.Sym, at: m.At}
		}
	case actor.DecisionMsg:
		r.decs++
		r.dec[m.Sym.Key()] = m
		r.decGen[m.Sym.Key()]++
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
func (r *Runner) hookFire(sym algebra.Symbol, at int64, _ simnet.Time) {
	r.mu.Lock()
	r.anns++
	if _, seen := r.occ[sym.Key()]; !seen {
		r.occ[sym.Key()] = occRec{sym: sym, at: at}
	}
	r.mu.Unlock()
}

// hookDecision observes a decision through the actor hook.
func (r *Runner) hookDecision(d actor.DecisionMsg) {
	key := d.Sym.Key()
	r.mu.Lock()
	r.decs++
	r.dec[key] = d
	r.decGen[key]++
	r.mu.Unlock()
	r.decGate.Pulse()
}

func (r *Runner) takeDecision(key string) (actor.DecisionMsg, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.dec[key]
	if ok {
		delete(r.dec, key)
	}
	return d, ok
}

func (r *Runner) resolved(b algebra.Symbol) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, pos := r.occ[b.Base().Key()]
	_, neg := r.occ[b.Base().Complement().Key()]
	return pos || neg
}

// StateDigest serializes the run's complete deterministic state: every
// hosted actor's digest (in sorted site and actor order) plus the
// driver's observation maps.  The model checker's interleaving
// exploration (internal/mc) combines it with the transport's queued
// messages to prune delivery-order branches that reconverge.  The
// announcement/decision tallies are deliberately excluded — they are
// reporting counters no future step reads.
func (r *Runner) StateDigest() string {
	var b strings.Builder
	sites := make([]simnet.SiteID, 0, len(r.hosts))
	for site := range r.hosts {
		sites = append(sites, site)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	for _, site := range sites {
		h := r.hosts[site]
		for _, key := range h.order {
			b.WriteString(h.actors[key].StateDigest())
			b.WriteString("\n")
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	occKeys := make([]string, 0, len(r.occ))
	for k := range r.occ {
		occKeys = append(occKeys, k)
	}
	sort.Strings(occKeys)
	for _, k := range occKeys {
		fmt.Fprintf(&b, "occ:%s@%d;", k, r.occ[k].at)
	}
	decKeys := make([]string, 0, len(r.dec))
	for k := range r.dec {
		decKeys = append(decKeys, k)
	}
	sort.Strings(decKeys)
	for _, k := range decKeys {
		d := r.dec[k]
		fmt.Fprintf(&b, "dec:%s=%v@%d;", k, d.Accepted, d.At)
	}
	genKeys := make([]string, 0, len(r.decGen))
	for k := range r.decGen {
		if r.decGen[k] != 0 {
			genKeys = append(genKeys, k)
		}
	}
	sort.Strings(genKeys)
	for _, k := range genKeys {
		fmt.Fprintf(&b, "gen:%s=%d;", k, r.decGen[k])
	}
	return b.String()
}

// submit sends one attempt from the driver.
func (r *Runner) submit(sym algebra.Symbol, forced bool) error {
	site, err := r.plan.siteFor(sym)
	if err != nil {
		return err
	}
	var replyTo simnet.SiteID
	if r.plan.observe {
		replyTo = r.driver
	}
	r.tr.Send(r.driver, site, actor.AttemptMsg{Sym: sym, Forced: forced, ReplyTo: replyTo})
	return nil
}

// attempt submits one attempt from the driver.  In the default mode
// it then quiesces the whole transport — the serial, lockstep drive.
// In pipelined mode it only waits for this attempt's own decision
// (or for the transport to park), which is what lets many attempts —
// and, in internal/engine, many instances — overlap.
func (r *Runner) attempt(sym algebra.Symbol, forced bool) error {
	if !r.pipelined {
		if err := r.submit(sym, forced); err != nil {
			return err
		}
		if !r.tr.WaitIdle(r.timeout) {
			return fmt.Errorf("arun: transport did not quiesce after attempting %s", sym)
		}
		return nil
	}
	key := sym.Key()
	r.mu.Lock()
	start := r.decGen[key]
	r.mu.Unlock()
	if err := r.submit(sym, forced); err != nil {
		return err
	}
	return r.awaitAttempt(sym, key, start)
}

// awaitAttempt blocks until the attempt's decision count moves past
// the pre-send snapshot, the transport parks with the attempt still
// undecided (held behind an inquiry — the drive loop moves on and a
// later decision folds in), or the deadline passes.
func (r *Runner) awaitAttempt(sym algebra.Symbol, key string, start uint64) error {
	moved := func() bool {
		r.mu.Lock()
		m := r.decGen[key] != start
		r.mu.Unlock()
		return m
	}
	timer := time.NewTimer(r.timeout)
	defer timer.Stop()
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
		case <-timer.C:
			cancel()
			return fmt.Errorf("arun: no decision for %s before timeout", sym)
		}
		cancel()
	}
	return nil
}

// agState is one agent script mid-drive.
type agState struct {
	id      string
	queue   []spec.Step
	waiting string // outstanding attempt's symbol key, "" if none
	clock   simnet.Time
}

// Run drives the agents to completion (or stall), closes the run out
// to a maximal trace, and returns the outcome.
func (r *Runner) Run() (*Outcome, error) { return r.drive(r.plan.sp.Agents) }

// drive is the one drive loop: it runs the scripts (none, for an
// externally-fed run), closes the run out, settles the transport and
// reads the outcome.
func (r *Runner) drive(scripts []*spec.AgentScript) (*Outcome, error) {
	agents := make([]*agState, 0, len(scripts))
	budget := 64
	for _, ag := range scripts {
		agents = append(agents, &agState{id: ag.ID, queue: append([]spec.Step(nil), ag.Steps...)})
		budget += 8 * len(ag.Steps)
	}

	// fold consumes arrived decisions for outstanding attempts.
	fold := func() bool {
		changed := false
		for _, ag := range agents {
			if ag.waiting == "" {
				continue
			}
			d, ok := r.takeDecision(ag.waiting)
			if !ok {
				continue
			}
			ag.waiting = ""
			if d.Accepted {
				ag.queue = ag.queue[1:]
			} else {
				ag.queue = append([]spec.Step(nil), ag.queue[0].OnReject...)
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
		for _, ag := range agents {
			if ag.waiting != "" || len(ag.queue) == 0 {
				continue
			}
			at := ag.clock + ag.queue[0].Think
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
			step := ag.queue[0]
			ag.clock += step.Think
			ag.waiting = step.Sym.Key()
			if err := r.attempt(step.Sym, step.Forced); err != nil {
				return progress, err
			}
			progress = true
		}
	}

	// The main loop interleaves agent progress with closeout passes:
	// complements of unresolved events first ("this will never occur"),
	// then — where the complement is refused, i.e. the event is
	// obligated — the events themselves.  Mirrors sched.runCloseout.
	allResolved := func() bool {
		for _, b := range r.plan.bases {
			if !r.resolved(b) {
				return false
			}
		}
		return true
	}
	agentsDone := func() bool {
		for _, ag := range agents {
			if ag.waiting != "" || len(ag.queue) > 0 {
				return false
			}
		}
		return true
	}
	triedComp := map[string]bool{}
	triedPos := map[string]bool{}
	for pass := 0; pass < 2*len(r.plan.bases)+4; pass++ {
		progress, err := driveAgents()
		if err != nil {
			return nil, err
		}
		for _, b := range r.plan.bases {
			if r.resolved(b) {
				continue
			}
			switch {
			case !triedComp[b.Key()]:
				triedComp[b.Key()] = true
				if err := r.attempt(b.Complement(), false); err != nil {
					return nil, err
				}
				progress = true
			case !triedPos[b.Key()]:
				triedPos[b.Key()] = true
				if err := r.attempt(b, false); err != nil {
					return nil, err
				}
				progress = true
			}
		}
		if (allResolved() && agentsDone()) || !progress {
			// A pipelined drive can appear stalled or done while
			// decisions and announcements are still in flight: settle
			// with one full quiescence, and resume if anything new folds
			// in or the resolution picture changed.  After a serial
			// attempt the transport is already idle, so this is a no-op.
			r.tr.WaitIdle(r.timeout)
			if fold() {
				continue
			}
			if !(allResolved() && agentsDone()) && progress {
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
	return r.outcome(), nil
}

// outcome snapshots the driver's observations.
func (r *Runner) outcome() *Outcome {
	r.mu.Lock()
	defer r.mu.Unlock()
	recs := make([]occRec, 0, len(r.occ))
	for _, rec := range r.occ {
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].at < recs[j].at })
	out := &Outcome{
		Occurred:      make(map[string]int64, len(recs)),
		Trace:         make([]string, 0, len(recs)),
		Decisions:     r.decs,
		Announcements: r.anns,
	}
	trace := make(algebra.Trace, 0, len(recs))
	for _, rec := range recs {
		out.Occurred[rec.sym.Key()] = rec.at
		out.Trace = append(out.Trace, rec.sym.Key())
		trace = append(trace, rec.sym)
	}
	if r.satCache != nil {
		out.Satisfied = r.satCache.satisfied(r.plan.sp.Workflow, trace, out.Trace)
	} else {
		out.Satisfied = core.SatisfiesAll(r.plan.sp.Workflow, trace)
	}
	for _, b := range r.plan.bases {
		_, pos := r.occ[b.Key()]
		_, neg := r.occ[b.Complement().Key()]
		if !pos && !neg {
			out.Unresolved = append(out.Unresolved, b.Key())
		}
	}
	return out
}
