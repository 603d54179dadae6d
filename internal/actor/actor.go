// Package actor implements the distributed event-centric scheduler's
// runtime unit: one actor per event, holding that event's guard and
// deciding its occurrence purely from local knowledge and messages
// (paper §2 and §4.3).
//
// Each actor manages both polarities of one event — e and ē cannot
// both occur, and an actor is the natural serialization point for
// that exclusion.  The actor:
//
//   - parks attempted events whose guards are not yet ⊤,
//   - assimilates □ announcements into the state of its compiled guard
//     program (internal/gprog), the only store of its facts, which
//     evaluates both guards by the proof rules of §4.3,
//   - runs the agreement protocol for ¬f literals: it inquires at f's
//     actor, which either reports f's status or grants a hold — a
//     short-lived freeze of f — so that both sides agree whether f has
//     happened (the consistency requirement the paper states),
//   - breaks ◇-cycles with conditional promises (Example 11): the
//     inquired actor promises its event will occur provided the
//     requester's does, which lets the requester fire, whose
//     announcement then discharges the promise,
//   - avoids deadlock among concurrent decision rounds by a total
//     priority order on event keys: an actor with an active round for
//     a higher-priority (lexicographically smaller) event defers
//     replies to lower-priority requesters; cycles would need a
//     descending chain of keys and therefore cannot close.
//
// Safety of firing rests on a monotonicity argument: a decision uses
// only (a) permanent facts — occurrences, impossibilities, binding
// promises — which can never be retracted, (b) holds, which freeze the
// corresponding events until the decision completes, and (c)
// conditional promises, whose grant condition is evaluated over
// permanent facts only and therefore survives until discharge.
package actor

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/gprog"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/symtab"
	"repro/internal/temporal"
)

// Net is the transport the actor runs on.  *simnet.Network implements
// it (deterministic simulation); internal/netwire implements it over
// TCP links between real goroutines.  An actor's handlers are always
// invoked from a single goroutine per site — the transport provides
// that serialization.
type Net interface {
	// Send delivers a payload to a site, eventually.
	Send(from, to simnet.SiteID, payload any)
	// Now is the transport's clock.
	Now() simnet.Time
	// NextOccurrence issues the next globally ordered occurrence
	// index.
	NextOccurrence() int64
	// Clock reads the transport's current Lamport occurrence bound
	// without advancing it: every occurrence index issued so far is
	// ≤ Clock(), and every future one is > Clock().  Observability
	// uses it to stamp trace records; the protocol itself never reads
	// it.
	Clock() int64
}

// Actor manages one event (both polarities) at one site.
type Actor struct {
	base  algebra.Symbol
	id    symtab.ID // base's id in the directory's table
	tab   *symtab.Table
	site  simnet.SiteID
	dir   *Directory
	hooks *Hooks

	// pols holds the base polarity at index 0 and its complement at 1
	// (the gprog.PolPos / gprog.PolNeg order).
	pols [2]polarity
	// ordered holds both polarities sorted by symbol key, precomputed
	// so broadcast-order walks never re-sort (or allocate).
	ordered [2]*polarity

	// prog is the actor's state of its compiled guard program: the only
	// store of its facts and the only evaluator of both guards.  Every
	// decision — fire, reject, inquiry targets, hold trimming, promise
	// waves — reads its verdicts and residual products.
	prog gprog.State
	// hyp is the scratch state promise soundness is judged in: the
	// permanent facts plus a hypothesis.  Its cells are made on first
	// use.
	hyp gprog.State
	// ids is scratch for the symbol lists a decision builds.
	ids []symtab.ID

	roundSeq int
	deferred []InquireMsg

	// counts tallies the protocol steps since the owner last took them
	// (TakeCounts): plain fields, because an actor runs on one
	// goroutine at a time and its instance publishes the sum once.
	counts Counts

	// Log, when set, receives a line per significant action.
	Log func(format string, args ...any)

	// Trace, when set, receives a decision record per protocol step.
	// A nil scope is off; an attached scope costs one atomic load per
	// step while its tracer is disabled.  Tracing only records: a
	// traced run decides exactly as an untraced one.
	Trace *obs.Scope
}

type polarity struct {
	sym algebra.Symbol
	id  symtab.ID
	// shown is the residual guard the last trace record showed; empty
	// until then, when it is the source guard.
	shown string

	// The protocol maps (holdsOnMe, promisesBy, promiseClaims,
	// pastInquirers) stay nil until put first writes them: most
	// polarities of a short instance never hold, promise or get asked.
	attempted   bool
	forced      bool
	attemptTime simnet.Time
	replyTo     simnet.SiteID
	occurred    bool
	at          int64
	rejected    bool
	fireReady   bool
	round       *round
	holdsOnMe   map[holdKey]bool
	// promisesBy maps requester symbol → the outstanding conditional
	// promise this actor gave on this symbol.
	promisesBy map[symtab.ID]promiseInfo
	// promiseClaims maps target symbol → the conditional promises this
	// polarity has received.  Claims persist across rounds: they are
	// consumed at fire (discharge) or at reject (lapse).
	promiseClaims map[symtab.ID]promiseClaim
	// triggerable: the scheduler may cause this event proactively
	// (task attribute, §2); its actor may then promise it before any
	// attempt and self-trigger on discharge.
	triggerable bool
	// pastInquirers are sites that asked about this symbol; they are
	// nudged when it becomes attempted (a promise may now be possible).
	pastInquirers map[simnet.SiteID]bool
	// retry records that new information arrived during an active
	// round; an inconclusive round is then immediately re-decided.
	retry bool
	// wave is the set of claim targets the pending fire decision relies
	// on; those claims are discharged at fire, the rest lapse.
	wave map[symtab.ID]bool
}

// pol is the polarity's index into the guard program: the id's bar
// bit, as pols is indexed.
func (p *polarity) pol() int { return int(p.id & 1) }

type round struct {
	id      int
	pending map[symtab.ID]bool
	// holds are the agreement claims of this round; they are released
	// when the round ends, fired or not.
	holds []claim
}

type claim struct {
	target algebra.Symbol
	id     symtab.ID // target's
	site   simnet.SiteID
}

// holdKey names a hold this actor granted: the requester and its
// round.
type holdKey struct {
	req   symtab.ID
	round int
}

// promiseInfo is a promise this actor gave: the requester it went to
// and the conditions under which it must be fulfilled.
type promiseInfo struct {
	requester algebra.Symbol
	conds     []algebra.Symbol
	condIDs   []symtab.ID // conds' ids, aligned
}

// promiseClaim is a promise this actor received.
type promiseClaim struct {
	target   algebra.Symbol
	site     simnet.SiteID
	conds    []algebra.Symbol
	condIDs  []symtab.ID // conds' ids, aligned
	afterReq bool
}

// New creates an actor for the base event at the site, deciding both
// polarities on the program compiled from their guards onto the
// directory's table (gprog.CompileOn).  The event must be in that
// table (Place puts it there), and so must every symbol its protocol
// messages will name.  The hooks may be nil.
func New(base algebra.Symbol, site simnet.SiteID, dir *Directory, hooks *Hooks, prog *gprog.Prog) *Actor {
	if prog.Table() != dir.tab {
		panic(fmt.Sprintf("actor %s: program lowered onto another symbol table", base))
	}
	a := &Actor{base: base.Base(), site: site, dir: dir, tab: dir.tab, hooks: hooks}
	a.id = a.tab.MustLookup(a.base)
	prog.InitState(&a.prog)
	a.Reset()
	return a
}

// Reset puts the actor in the state New leaves it in: no facts, no
// protocol state, nothing attempted or triggerable.  It keeps what does
// not depend on the run — event, site, directory, hooks, program,
// trace scope and log — and the storage of the program states, so a
// recycled instance (arun.Scratch) rebuilds its actors without
// allocating.  New initialises through it, so a reset actor and a new
// one cannot drift apart.  The caller must own the actor: no message
// may be in flight to it.
func (a *Actor) Reset() {
	a.prog.Reset()
	a.roundSeq = 0
	a.counts = Counts{}
	clear(a.deferred)
	a.deferred = a.deferred[:0]
	comp := a.id.Complement()
	a.pols = [2]polarity{{sym: a.base, id: a.id}, {sym: a.tab.Sym(comp), id: comp}}
	a.ordered = [2]*polarity{&a.pols[0], &a.pols[1]}
	if a.tab.Key(comp) < a.tab.Key(a.id) {
		a.ordered[0], a.ordered[1] = a.ordered[1], a.ordered[0]
	}
}

// status reads one symbol's fact.  Facts live only in the program
// state; an id it has no slot for — a symbol added to the table after
// the program was compiled — is one no guard reads, and stays unknown.
func (a *Actor) status(id symtab.ID) temporal.Status {
	st, _ := a.prog.StatusID(id)
	return st
}

// idOf resolves a symbol a protocol message names to its id.  Only
// attempts, announcements and decisions carry ids; inquiries, replies,
// releases and the promise conditions they carry name their symbols,
// and every one of them is in the plan's table.
func (a *Actor) idOf(s algebra.Symbol) symtab.ID { return a.tab.MustLookup(s) }

// idsOf resolves names to ids.
func (a *Actor) idsOf(ss []algebra.Symbol) []symtab.ID {
	out := make([]symtab.ID, len(ss))
	for i, s := range ss {
		out[i] = a.idOf(s)
	}
	return out
}

// localClean reports whether a decision on the polarity may treat its
// still-unknown consensus-eliminated symbols as held: the polarity has
// such symbols, and this actor has produced no enabling fact (no
// occurrence and no outstanding promise on either polarity) — f cannot
// have occurred without our cooperation, so no agreement round trip is
// needed.
func (a *Actor) localClean(p *polarity) bool {
	return a.prog.Prog().NeedsLocal(p.pol()) && a.localFactsClean()
}

// sortByKey orders ids by their symbols' keys, the order every
// protocol walk over a symbol set takes.
func (a *Actor) sortByKey(ids []symtab.ID) {
	slices.SortFunc(ids, func(x, y symtab.ID) int { return strings.Compare(a.tab.Key(x), a.tab.Key(y)) })
}

// missingConds appends the not-yet-covered conditions of the
// polarity's claims: the events to inquire about next so a commit wave
// can close.
func (a *Actor) missingConds(p *polarity, dst []symtab.ID) []symtab.ID {
	for _, c := range p.promiseClaims {
		for _, cond := range c.condIDs {
			if cond.SameEvent(a.id) {
				continue
			}
			if _, claimed := p.promiseClaims[cond]; claimed {
				continue
			}
			if a.status(cond) == temporal.StatusOccurred {
				continue
			}
			dst = append(dst, cond)
		}
	}
	return dst
}

// decideWave tries to satisfy some residual product of the guard using
// the received conditional promises: each product defines its own
// candidate commit wave.  A product qualifies when every literal is
// either decided true by the view or is a single-event ◇ covered by a
// live claim; the wave then closes over the claims' conditions and
// must be internally consistent (no event together with its
// complement, and an event x with ¬x in the product only when its
// promise is ordered after this event's occurrence).  Products are
// tried in key order; the first that qualifies wins.
func (a *Actor) decideWave(p *polarity, view gprog.View) (map[symtab.ID]bool, bool) {
	if len(p.promiseClaims) == 0 {
		return nil, false
	}
	prog := a.prog.Prog()
	var slots [64]int32
	for _, prod := range a.prog.Residual(p.pol()).Products() {
		wave := map[symtab.ID]bool{}
		ok := true
		var negs []symtab.ID
		for _, li := range prog.Slots(prod, slots[:0]) {
			kind, ids := prog.Slot(li)
			if kind == temporal.LitNotYet {
				negs = append(negs, ids[0])
			}
			switch view.Lit(li) {
			case temporal.True:
				continue
			case temporal.False:
				ok = false
			default:
				if kind == temporal.LitEventually && len(ids) == 1 {
					if _, have := p.promiseClaims[ids[0]]; have &&
						a.status(ids[0]) != temporal.StatusImpossible {
						wave[ids[0]] = true
						continue
					}
				}
				ok = false
			}
			if !ok {
				break
			}
		}
		if !ok || len(wave) == 0 {
			continue
		}
		if !a.closeWave(p, wave) {
			continue
		}
		if !a.waveConsistent(p, wave, negs) {
			continue
		}
		return wave, true
	}
	return nil, false
}

// closeWave extends the wave over the conditions of its claims; it
// fails when a condition is impossible or has no covering claim.
func (a *Actor) closeWave(p *polarity, wave map[symtab.ID]bool) bool {
	for changed := true; changed; {
		changed = false
		for k := range wave {
			for _, cid := range p.promiseClaims[k].condIDs {
				if cid == p.id || wave[cid] ||
					a.status(cid) == temporal.StatusOccurred {
					continue
				}
				if _, have := p.promiseClaims[cid]; !have ||
					a.status(cid) == temporal.StatusImpossible {
					return false
				}
				wave[cid] = true
				changed = true
			}
		}
	}
	return true
}

// waveConsistent rejects waves that contain an event with its
// complement (or with this actor's own complement), and waves that put
// an event x in the commit set while the product relies on ¬x —
// unless x's promise is ordered after this event's occurrence.
func (a *Actor) waveConsistent(p *polarity, wave map[symtab.ID]bool, negs []symtab.ID) bool {
	for k := range wave {
		if wave[k.Complement()] || k.SameEvent(a.id) {
			return false
		}
	}
	for _, x := range negs {
		if wave[x] && !p.promiseClaims[x].afterReq {
			return false
		}
	}
	return true
}

// ID returns the base event's symbol id.
func (a *Actor) ID() symtab.ID { return a.id }

// Site returns the actor's site.
func (a *Actor) Site() simnet.SiteID { return a.site }

// SetTriggerable marks a polarity as proactively triggerable by the
// scheduler (task attribute, §2).
func (a *Actor) SetTriggerable(s algebra.Symbol) { a.polSym(s).triggerable = true }

func (a *Actor) logf(format string, args ...any) {
	if a.Log != nil {
		a.Log("[%s@%s] "+format, append([]any{a.base.Key(), a.site}, args...)...)
	}
}

func (a *Actor) pol(id symtab.ID) *polarity {
	p := a.lookup(id)
	if p == nil {
		panic(fmt.Sprintf("actor %s: message about foreign symbol id %d", a.base, id))
	}
	return p
}

// polSym is pol for a symbol given by name.
func (a *Actor) polSym(s algebra.Symbol) *polarity { return a.pol(a.idOf(s)) }

// lookup returns the polarity the id names, or nil when it is not one
// of this actor's two symbols.  pols is indexed by the id's bar bit.
func (a *Actor) lookup(id symtab.ID) *polarity {
	if !id.SameEvent(a.id) {
		return nil
	}
	return &a.pols[id&1]
}

// other returns the polarity opposite p.
func (a *Actor) other(p *polarity) *polarity { return &a.pols[(p.id^1)&1] }

// Deliver processes one protocol payload on any transport.
func (a *Actor) Deliver(n Net, payload any) {
	switch msg := payload.(type) {
	case AttemptMsg:
		a.onAttempt(n, msg)
	case AnnounceMsg:
		a.onAnnounce(n, msg)
	case InquireMsg:
		a.onInquire(n, msg)
	case InquireReplyMsg:
		a.onReply(n, msg)
	case ReleaseMsg:
		a.onRelease(n, msg)
	case NudgeMsg:
		a.onNudge(n, msg)
	default:
		panic(fmt.Sprintf("actor %s: unexpected payload %T", a.base, payload))
	}
}

func (a *Actor) onAttempt(n Net, m AttemptMsg) {
	p := a.pol(m.ID)
	if a.Log != nil { // checked here: the varargs box is per-delivery
		a.logf("attempt %s forced=%v", m.Sym, m.Forced)
	}
	a.counts.Attempts++
	if a.Trace.On() {
		verdict := ""
		if m.Forced {
			verdict = "forced"
		}
		a.Trace.Emit(obs.Record{
			Lamport: n.Clock(),
			Kind:    obs.KindAttempt,
			Sym:     a.tab.Key(m.ID),
			Verdict: verdict,
		})
	}
	if p.occurred {
		a.sendDecision(n, p, true, "already occurred")
		return
	}
	if p.rejected {
		a.sendDecision(n, p, false, "already rejected")
		return
	}
	first := !p.attempted
	p.attempted = true
	p.forced = p.forced || m.Forced
	if m.ReplyTo != "" {
		p.replyTo = m.ReplyTo
	}
	if first {
		p.attemptTime = n.Now()
	}
	if a.status(p.id) == temporal.StatusImpossible || a.other(p).occurred {
		a.reject(n, p, "complement occurred")
		return
	}
	if p.forced {
		// Non-rejectable events are accepted unconditionally.
		a.fire(n, p)
		return
	}
	a.decide(n, p)
	if first && !p.occurred && !p.rejected && len(p.pastInquirers) > 0 {
		// The symbol is now attempted: past inquirers may be able to
		// obtain the conditional promise they were missing.  Sorted so
		// the send order — and with it the simulator's delivery
		// sequence — is a pure function of the actor state (the
		// golden-replay property).
		sites := make([]simnet.SiteID, 0, len(p.pastInquirers))
		for site := range p.pastInquirers {
			sites = append(sites, site)
		}
		sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
		for _, site := range sites {
			n.Send(a.site, site, NudgeMsg{Sym: p.sym})
		}
	}
}

// onNudge re-evaluates parked decisions: the nudging event became
// attempted, so a fresh inquiry round may now secure a promise.
func (a *Actor) onNudge(n Net, _ NudgeMsg) {
	for _, p := range a.sortedPols() {
		if p.attempted && !p.occurred && !p.rejected && !p.fireReady {
			if p.round != nil {
				p.retry = true
				continue
			}
			a.decide(n, p)
		}
	}
}

func (a *Actor) onAnnounce(n Net, m AnnounceMsg) {
	if m.ID.SameEvent(a.id) {
		return // our own occurrences are recorded at fire time
	}
	if a.Log != nil { // checked here: the varargs box is per-delivery
		a.logf("announce %s@%d", m.Sym, m.At)
	}
	a.counts.Announcements++
	if a.Trace.On() {
		a.Trace.Emit(obs.Record{
			Lamport: n.Clock(),
			Kind:    obs.KindAnnounce,
			Sym:     a.tab.Key(m.ID),
			At:      m.At,
		})
	}
	a.prog.ObserveID(m.ID, m.At)
	a.answerDeferred(n)
	a.settlePromises(n)
	for _, p := range a.sortedPols() {
		if p.attempted && !p.occurred && !p.rejected {
			if p.round != nil {
				p.retry = true
			}
			a.decide(n, p)
		}
	}
}

// settlePromises walks every promise this actor gave: a promise whose
// conditions all occurred obligates the event (the polarity
// self-triggers if it was never attempted); a promise with an
// impossible condition lapses.
func (a *Actor) settlePromises(n Net) {
	for _, p := range a.sortedPols() {
		if len(p.promisesBy) == 0 {
			continue
		}
		for key, info := range p.promisesBy {
			lapsed, due := false, true
			for _, c := range info.condIDs {
				switch a.status(c) {
				case temporal.StatusImpossible:
					lapsed = true
				case temporal.StatusOccurred:
					// satisfied
				default:
					due = false
				}
			}
			switch {
			case lapsed:
				a.logf("promise of %s to %s lapses (condition impossible)", p.sym, info.requester)
				delete(p.promisesBy, key)
			case due && !p.occurred && !p.rejected && !p.attempted:
				p.attempted = true
				p.attemptTime = n.Now()
				a.logf("self-trigger %s to discharge promise to %s", p.sym, info.requester)
			}
		}
	}
}

// decide evaluates a parked polarity and acts: fire, reject, start an
// inquiry round, or keep waiting.
func (a *Actor) decide(n Net, p *polarity) {
	if p.occurred || p.rejected || p.fireReady {
		return
	}
	if v, done := a.evaluate(n, p); !done {
		a.traceEval(n, p, v.String())
		if p.round == nil {
			a.startRound(n, p)
		}
	}
}

// evaluate judges the polarity on its program and acts on a conclusive
// verdict: it fires on a true guard or on a commit wave the received
// promises close, and rejects a guard the permanent facts made 0.  It
// reports the decision-time verdict and whether it acted.
func (a *Actor) evaluate(n Net, p *polarity) (temporal.Tri, bool) {
	a.traceResidual(n, p)
	view := a.prog.DecideView(p.pol(), a.localClean(p))
	v := view.Verdict()
	switch {
	case v == temporal.True:
		a.traceEval(n, p, "true")
		p.wave = nil
	case a.prog.Eval(p.pol()) == temporal.False:
		a.endRound(n, p)
		a.reject(n, p, "guard reduced to 0")
		return v, true
	default:
		wave, ok := a.decideWave(p, view)
		if !ok {
			return v, false
		}
		a.traceEval(n, p, "wave")
		p.wave = wave
	}
	// Keep only the holds that back a ¬ literal of the guard; the rest
	// were incidental to the inquiry and would deadlock mutually
	// fire-ready commit waves.
	a.releaseUnneededHolds(n, p)
	a.tryFire(n, p) // remaining holds released once the event fires
	return v, true
}

func (a *Actor) startRound(n Net, p *polarity) {
	targets := a.prog.Awaited(p.pol(), a.prog.DecideView(p.pol(), a.localClean(p)), a.ids[:0])
	targets = a.missingConds(p, targets)
	// Never inquire about our own event.  Already-claimed targets are
	// re-inquired: the inquiry also (re-)establishes the hold that ¬
	// literals need, and grants are idempotent.
	kept := targets[:0]
	for _, t := range targets {
		if !t.SameEvent(a.id) && !slices.Contains(kept, t) {
			kept = append(kept, t)
		}
	}
	a.ids = kept[:0]
	if len(kept) == 0 {
		return // nothing to ask; wait for announcements
	}
	a.roundSeq++
	p.round = &round{id: a.roundSeq, pending: make(map[symtab.ID]bool, len(kept))}
	a.sortByKey(kept)
	hyp := a.hypothesis(p)
	for _, t := range kept {
		target := a.tab.Sym(t)
		site, err := a.dir.SiteOf(target)
		if err != nil {
			panic(err)
		}
		p.round.pending[t] = true
		n.Send(a.site, site, InquireMsg{
			Target:    target,
			Requester: p.sym,
			ReplyTo:   a.site,
			Round:     p.round.id,
			Hyp:       hyp,
		})
	}
	a.logf("round %d for %s: inquiring %d targets", p.round.id, p.sym, len(p.round.pending))
}

// hypothesis is what the requester vouches for in an inquiry: its own
// event.  Waves grow through counter-conditions instead of through the
// hypothesis, so alternative (mutually incompatible) waves never
// poison each other.
func (a *Actor) hypothesis(p *polarity) []algebra.Symbol {
	return []algebra.Symbol{p.sym}
}

func (a *Actor) onInquire(n Net, m InquireMsg) {
	a.counts.Inquiries++
	p := a.polSym(m.Target)
	put(&p.pastInquirers, m.ReplyTo, true)
	if p.occurred {
		n.Send(a.site, m.ReplyTo, InquireReplyMsg{
			Target: m.Target, Requester: m.Requester, Round: m.Round,
			Occurred: true, At: p.at,
		})
		return
	}
	if a.status(p.id) == temporal.StatusImpossible || a.other(p).occurred {
		n.Send(a.site, m.ReplyTo, InquireReplyMsg{
			Target: m.Target, Requester: m.Requester, Round: m.Round,
			Impossible: true,
		})
		return
	}
	// Priority deferral: while we run a round for a higher-priority
	// event, postpone the reply.
	if sym, active := a.minActiveRoundSym(); active && sym < m.Requester.Key() {
		a.logf("deferring inquiry about %s from %s (deciding %s)", m.Target, m.Requester, sym)
		a.deferred = append(a.deferred, m)
		return
	}
	reqID := a.idOf(m.Requester)
	put(&p.holdsOnMe, holdKey{reqID, m.Round}, true)
	hyp := m.Hyp
	if len(hyp) == 0 {
		hyp = []algebra.Symbol{m.Requester}
	}
	promised := false
	conds := hyp
	afterReq := false
	comp := a.other(p)
	if existing, already := p.promisesBy[reqID]; already {
		// A promise to this requester is already outstanding; repeat
		// it with its original conditions.
		promised = true
		conds = existing.conds
		afterReq = a.orderedAfter(p, m.Requester, conds)
	} else if (p.attempted || p.triggerable) && !p.rejected {
		if granted, ok := a.grantConds(p, hyp); ok &&
			exclusiveWithAll(comp.promisesBy, m.Requester, granted) {
			promised = true
			conds = granted
			afterReq = a.orderedAfter(p, m.Requester, conds)
			put(&p.promisesBy, reqID, promiseInfo{requester: m.Requester, conds: conds, condIDs: a.idsOf(conds)})
		}
	}
	a.logf("reply to %s about %s: held, promised=%v conds=%v afterReq=%v",
		m.Requester, m.Target, promised, conds, afterReq)
	n.Send(a.site, m.ReplyTo, InquireReplyMsg{
		Target: m.Target, Requester: m.Requester, Round: m.Round,
		Held: true, Promised: promised, Conds: conds, AfterReq: afterReq,
	})
}

// grantConds finds the smallest condition set under which a promise is
// sound: the hypothesis alone, the hypothesis plus one
// counter-condition, or the hypothesis plus all of them.
func (a *Actor) grantConds(p *polarity, hyp []algebra.Symbol) ([]algebra.Symbol, bool) {
	if a.promiseSound(p, hyp) {
		return hyp, true
	}
	extras := a.counterConditions(p, hyp)
	if len(extras) == 0 {
		return nil, false
	}
	for _, e := range extras {
		withOne := append(append([]algebra.Symbol(nil), hyp...), e)
		if a.promiseSound(p, withOne) {
			return withOne, true
		}
	}
	if len(extras) > 1 {
		withAll := append(append([]algebra.Symbol(nil), hyp...), extras...)
		if a.promiseSound(p, withAll) {
			return withAll, true
		}
	}
	return nil, false
}

// exclusiveWithAll reports that a candidate promise (to the requester,
// under the given conditions) cannot ever be obligated together with
// any outstanding promise on the complement polarity: their condition
// sets must be mutually exclusive (some event appears with opposite
// polarities), so at most one of the two commit waves can occur.
// Promising both polarities is otherwise forbidden.
func exclusiveWithAll(compPromises map[symtab.ID]promiseInfo, requester algebra.Symbol,
	conds []algebra.Symbol) bool {
	mine := append(append([]algebra.Symbol(nil), conds...), requester)
	for _, info := range compPromises {
		theirs := append(append([]algebra.Symbol(nil), info.conds...), info.requester)
		exclusive := false
		for _, x := range mine {
			for _, y := range theirs {
				if x.SameEvent(y) && x.Key() != y.Key() {
					exclusive = true
				}
			}
		}
		if !exclusive {
			return false
		}
	}
	return true
}

// orderedAfter reports that the promised event cannot fire before the
// requester really occurs: with every condition except the requester
// hypothetically in place, the guard is still not satisfied.
func (a *Actor) orderedAfter(p *polarity, requester algebra.Symbol, conds []algebra.Symbol) bool {
	rest := make([]algebra.Symbol, 0, len(conds))
	for _, c := range conds {
		if !c.Equal(requester) {
			rest = append(rest, c)
		}
	}
	return !a.promiseSound(p, rest)
}

// counterConditions proposes the extra events a grant would need
// beyond the requester's hypothesis: the symbols this polarity's
// residual guard still awaits once the hypothesis occurred (bounded,
// to keep waves small).
func (a *Actor) counterConditions(p *polarity, hyp []algebra.Symbol) []algebra.Symbol {
	const maxExtras = 8
	hypIDs := a.idsOf(hyp)
	view := a.hypState(hypIDs).DecideView(p.pol(), false)
	ids := a.prog.Awaited(p.pol(), view, a.ids[:0])
	a.sortByKey(ids)
	var out []algebra.Symbol
	for i, u := range ids {
		if (i > 0 && ids[i-1] == u) || u.SameEvent(a.id) || slices.Contains(hypIDs, u) {
			continue
		}
		out = append(out, a.tab.Sym(u))
		if len(out) >= maxExtras {
			break
		}
	}
	a.ids = ids[:0]
	return out
}

// hypState loads the scratch state with the permanent facts and the
// hypothesis: every still-unknown member occurs, all at one time after
// everything real, in an order a grant must not rely on (ordered
// ◇-sequences across two hypothesis members evaluate false).
func (a *Actor) hypState(hyp []symtab.ID) *gprog.State {
	if a.hyp.Prog() == nil {
		a.prog.Prog().InitState(&a.hyp)
	}
	a.hyp.LoadPermanent(&a.prog)
	for _, h := range hyp {
		if st, _ := a.hyp.StatusID(h); st == temporal.StatusUnknown {
			a.hyp.ObserveID(h, math.MaxInt64)
		}
	}
	return &a.hyp
}

// promiseSound reports whether a conditional promise of p.sym to the
// requester is safe: under permanent facts plus a hypothetical future
// occurrence of the requester, p's guard is definitively true.
// Permanent facts are monotone, so the guard stays true until the
// requester's announcement arrives and the promise is discharged.
//
// Consensus-eliminated ¬f literals also count: f cannot occur without
// this actor's cooperation, and this actor does not cooperate before
// p fires, so ¬f holds through discharge.  Transient facts learned in
// other rounds (holds, conditional promises received) are stripped —
// they may lapse before discharge.
func (a *Actor) promiseSound(p *polarity, hypSet []algebra.Symbol) bool {
	hypIDs := a.idsOf(hypSet)
	h := a.hypState(hypIDs)
	// Chained promises this polarity already holds count when their
	// conditions are covered by the hypothesis (they will be
	// discharged in the same commit wave).
	for t, c := range p.promiseClaims {
		covered := true
		for _, cond := range c.condIDs {
			if st, _ := h.StatusID(cond); cond != p.id && !slices.Contains(hypIDs, cond) &&
				st != temporal.StatusOccurred {
				covered = false
				break
			}
		}
		if covered {
			h.CondPromiseID(t)
		}
	}
	return h.Decide(p.pol(), a.localClean(p)) == temporal.True
}

// localFactsClean reports that this actor has produced no enabling
// fact: neither polarity occurred and no conditional promise is
// outstanding.
func (a *Actor) localFactsClean() bool {
	for _, q := range a.ordered {
		if q.occurred || len(q.promisesBy) > 0 {
			return false
		}
	}
	return true
}

func (a *Actor) minActiveRoundSym() (string, bool) {
	best := ""
	for _, p := range a.ordered {
		if p.round != nil && len(p.round.pending) > 0 {
			if best == "" || p.sym.Key() < best {
				best = p.sym.Key()
			}
		}
	}
	return best, best != ""
}

func (a *Actor) onReply(n Net, m InquireReplyMsg) {
	p := a.polSym(m.Requester)
	site, siteErr := a.dir.SiteOf(m.Target)
	if siteErr != nil {
		panic(siteErr)
	}
	target := a.idOf(m.Target)
	alive := !p.occurred && !p.rejected
	// Promises persist beyond rounds: accept them whenever the
	// polarity is still undecided, even from a stale round.
	if m.Promised {
		if alive {
			if _, had := p.promiseClaims[target]; !had {
				p.retry = true // a new claim may close the commit wave
			}
			put(&p.promiseClaims, target, promiseClaim{
				target: m.Target, site: site, conds: m.Conds, condIDs: a.idsOf(m.Conds), afterReq: m.AfterReq,
			})
		} else {
			n.Send(a.site, site, ReleaseMsg{
				Target: m.Target, Requester: m.Requester, Round: m.Round, Promise: true,
			})
		}
	}
	stale := p.round == nil || p.round.id != m.Round
	if stale {
		if m.Held {
			n.Send(a.site, site, ReleaseMsg{Target: m.Target, Requester: m.Requester, Round: m.Round})
		}
		return
	}
	delete(p.round.pending, target)
	switch {
	case m.Occurred:
		a.prog.ObserveID(target, m.At)
	case m.Impossible:
		a.prog.MarkImpossibleID(target)
	default:
		if m.Held {
			p.round.holds = append(p.round.holds, claim{target: m.Target, id: target, site: site})
			a.prog.HoldID(target)
		}
	}
	if len(p.round.pending) == 0 {
		a.finishRound(n, p)
		// The round no longer defers inquiries (minActiveRoundSym), but
		// if its event is ready but blocked, endRound will not run yet.
		a.answerDeferred(n)
	}
}

func (a *Actor) finishRound(n Net, p *polarity) {
	if _, done := a.evaluate(n, p); done {
		return
	}
	a.traceEval(n, p, "unknown")
	if a.Log != nil { // checked here: printing the residual is not free
		a.logf("round for %s inconclusive (guard %s)", p.sym, a.prog.Residual(p.pol()).Key())
	}
	a.endRound(n, p)
	if p.retry {
		p.retry = false
		a.decide(n, p)
	}
}

// endRound releases the round's holds; received promises persist until
// the polarity fires (discharge) or is rejected (lapse).
func (a *Actor) endRound(n Net, p *polarity) {
	if p.round == nil {
		return
	}
	for _, c := range p.round.holds {
		n.Send(a.site, c.site, ReleaseMsg{
			Target: c.target, Requester: p.sym, Round: p.round.id,
		})
		a.prog.UnholdID(c.id)
	}
	p.round = nil
	a.answerDeferred(n)
}

// settleClaims resolves the polarity's received promises at its end of
// life: on fire, the claims of the chosen commit wave are discharged
// (those events must now occur) and the rest lapse; on rejection,
// everything lapses.
func (a *Actor) settleClaims(n Net, p *polarity, fired bool) {
	if len(p.promiseClaims) == 0 {
		p.promiseClaims, p.wave = nil, nil
		return
	}
	// Sorted claim order keeps the release sends — and the simulated
	// delivery sequence they induce — replay-deterministic.
	keys := make([]symtab.ID, 0, len(p.promiseClaims))
	for k := range p.promiseClaims {
		keys = append(keys, k)
	}
	a.sortByKey(keys)
	for _, k := range keys {
		c := p.promiseClaims[k]
		// Only the claims of the chosen commit wave were relied upon;
		// a fire that needed no wave lapses everything.
		discharge := fired && p.wave != nil && p.wave[k]
		n.Send(a.site, c.site, ReleaseMsg{
			Target: c.target, Requester: p.sym, Promise: true, Fired: discharge,
		})
	}
	p.promiseClaims = nil
	p.wave = nil
}

// releaseUnneededHolds drops the round holds on symbols that no ¬
// literal of the residual guard mentions: the decision does not rely
// on their non-occurrence, so freezing them any longer is pointless and
// can deadlock commit waves.
func (a *Actor) releaseUnneededHolds(n Net, p *polarity) {
	if p.round == nil || len(p.round.holds) == 0 {
		return
	}
	needed := a.prog.ResidualNotYet(p.pol(), a.ids[:0])
	kept := p.round.holds[:0]
	for _, c := range p.round.holds {
		if slices.Contains(needed, c.id) {
			kept = append(kept, c)
			continue
		}
		n.Send(a.site, c.site, ReleaseMsg{
			Target: c.target, Requester: p.sym, Round: p.round.id,
		})
		a.prog.UnholdID(c.id)
	}
	p.round.holds = kept
	a.ids = needed[:0]
}

func (a *Actor) onRelease(n Net, m ReleaseMsg) {
	p := a.polSym(m.Target)
	a.logf("release of %s by %s (promise=%v fired=%v)", m.Target, m.Requester, m.Promise, m.Fired)
	if m.Promise {
		reqID := a.idOf(m.Requester)
		_, promised := p.promisesBy[reqID]
		delete(p.promisesBy, reqID)
		if m.Fired && promised && !p.occurred && !p.rejected {
			// The requester used our promise: the event is obligated.
			if !p.attempted {
				p.attempted = true
				p.attemptTime = n.Now()
				a.logf("self-trigger %s to discharge promise to %s", p.sym, m.Requester)
			}
			a.decide(n, p)
		}
	} else {
		delete(p.holdsOnMe, holdKey{a.idOf(m.Requester), m.Round})
	}
	// A hold or promise may have been blocking a ready event.
	for _, q := range a.sortedPols() {
		if q.fireReady {
			a.tryFire(n, q)
		}
	}
}

// tryFire fires the polarity unless blocked by outstanding holds on it
// or by a conditional promise on its complement.
func (a *Actor) tryFire(n Net, p *polarity) {
	if p.occurred || p.rejected {
		return
	}
	comp := a.other(p)
	if len(p.holdsOnMe) > 0 || len(comp.promisesBy) > 0 {
		p.fireReady = true
		a.logf("%s ready but blocked (holds=%d, complement promises=%d)",
			p.sym, len(p.holdsOnMe), len(comp.promisesBy))
		return
	}
	a.fire(n, p)
}

func (a *Actor) fire(n Net, p *polarity) {
	at := n.NextOccurrence()
	// Journal before any send: the transport withholds announcement
	// frames until their log records — and transitively this fire
	// record — are durable.
	if j, ok := n.(Journal); ok {
		j.JournalFire(a.site, a.tab.Key(p.id), at)
	}
	p.occurred = true
	p.fireReady = false
	p.at = at
	a.prog.ObserveID(p.id, at)
	if a.Log != nil { // checked here: the varargs box is per-fire
		a.logf("FIRE %s@%d", p.sym, at)
	}
	a.counts.Fires++
	if a.Trace.On() {
		a.Trace.Emit(obs.Record{
			Lamport: n.Clock(),
			Kind:    obs.KindFire,
			Sym:     a.tab.Key(p.id),
			At:      at,
		})
	}
	ann := AnnounceMsg{Sym: p.sym, ID: p.id, At: at}
	a.hooks.fire(ann, n.Now())

	// One box serves every subscriber: payloads are immutable once
	// sent.
	if subs := a.dir.SubscribersOf(p.id); len(subs) > 0 {
		var msg any = ann
		for _, site := range subs {
			n.Send(a.site, site, msg)
		}
	}
	a.sendDecision(n, p, true, "")
	a.endRound(n, p)
	a.settleClaims(n, p, true)
	// Conditional promises on the fired symbol are discharged by the
	// announcement itself.
	p.promisesBy = nil

	comp := a.other(p)
	a.endRound(n, comp)
	if comp.attempted && !comp.occurred {
		a.reject(n, comp, "complement occurred")
	} else {
		a.settleClaims(n, comp, false)
	}
	a.answerDeferred(n)
}

func (a *Actor) reject(n Net, p *polarity, reason string) {
	if p.occurred || p.rejected {
		return
	}
	p.rejected = true
	p.fireReady = false
	if j, ok := n.(Journal); ok {
		j.JournalReject(a.site, a.tab.Key(p.id), reason)
	}
	a.endRound(n, p)
	a.settleClaims(n, p, false)
	a.logf("REJECT %s: %s", p.sym, reason)
	a.counts.Rejects++
	if a.Trace.On() {
		a.Trace.Emit(obs.Record{
			Lamport: n.Clock(),
			Kind:    obs.KindReject,
			Sym:     a.tab.Key(p.id),
			Verdict: reason,
		})
	}
	if p.attempted {
		a.sendDecision(n, p, false, reason)
	}
	a.answerDeferred(n)
}

func (a *Actor) sendDecision(n Net, p *polarity, accepted bool, reason string) {
	d := DecisionMsg{
		Sym:         p.sym,
		ID:          p.id,
		Accepted:    accepted,
		At:          p.at,
		AttemptedAt: p.attemptTime,
		DecidedAt:   n.Now(),
		Reason:      reason,
	}
	a.hooks.decision(d)
	if p.replyTo != "" {
		n.Send(a.site, p.replyTo, d)
	}
}

// answerDeferred retries deferred inquiries whose deferral condition
// no longer holds.
func (a *Actor) answerDeferred(n Net) {
	if len(a.deferred) == 0 {
		return
	}
	pending := a.deferred
	a.deferred = nil
	for _, m := range pending {
		a.onInquire(n, m)
	}
}

// sortedPols returns both polarities in symbol-key order.  The pair is
// precomputed at construction — delivery walks it on every
// announcement, so it must not sort or allocate.
func (a *Actor) sortedPols() []*polarity { return a.ordered[:] }

// put sets m[k] = v, making the map on first use.
func put[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}
