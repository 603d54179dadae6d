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
//   - assimilates □ announcements into its knowledge and reduces its
//     guards with the proof rules of §4.3,
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
	"sort"

	"repro/internal/algebra"
	"repro/internal/gprog"
	"repro/internal/obs"
	"repro/internal/simnet"
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
	site  simnet.SiteID
	dir   *Directory
	hooks *Hooks

	know temporal.Knowledge
	// pols holds the base polarity at index 0 and its complement at 1
	// (the gprog.PolPos / gprog.PolNeg order).
	pols [2]polarity
	// ordered holds both polarities sorted by symbol key, precomputed
	// so broadcast-order walks never re-sort (or allocate).
	ordered [2]*polarity

	// prog, when attached, is the compiled bitset mirror of both
	// guards: it assimilates the same facts as know and answers
	// Decide/Eval without touching the formula trees.  Each polarity's
	// residual guard stays authoritative for everything the fast path
	// does not cover (rounds, waves, promise soundness).
	prog *gprog.State

	roundSeq int
	deferred []InquireMsg

	// Log, when set, receives a line per significant action.
	Log func(format string, args ...any)

	// Trace, when set, receives a decision record per protocol step.
	// A nil scope is off; an attached scope costs one atomic load per
	// step while its tracer is disabled.
	Trace *obs.Scope
}

type polarity struct {
	sym algebra.Symbol
	key string // sym.Key(), fixed at construction
	// progPol is this polarity's index into the compiled guard
	// program (gprog.PolPos / gprog.PolNeg).
	progPol int
	// guard is the current residual guard; reducedVer records the
	// knowledge version it was last reduced at.  While that matches,
	// the residual is already fully reduced and Reduce is skipped.
	guard      temporal.Formula
	reducedVer uint64
	// localNeg holds the consensus-eliminated symbols of the guard.
	localNeg map[string]algebra.Symbol

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
	holdsOnMe   map[string]bool
	// promisesBy maps requester symbol key → the outstanding
	// conditional promise this actor gave on this symbol.
	promisesBy map[string]promiseInfo
	// promiseClaims maps target symbol key → the conditional promises
	// this polarity has received.  Claims persist across rounds: they
	// are consumed at fire (discharge) or at reject (lapse).
	promiseClaims map[string]promiseClaim
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
	// wave is the set of claim targets (by key) the pending fire
	// decision relies on; those claims are discharged at fire, the
	// rest lapse.
	wave map[string]bool
}

type round struct {
	id      int
	pending map[string]bool
	// holds are the agreement claims of this round; they are released
	// when the round ends, fired or not.
	holds []claim
}

type claim struct {
	target algebra.Symbol
	site   simnet.SiteID
}

// promiseInfo is a promise this actor gave: the requester it went to
// and the conditions under which it must be fulfilled.
type promiseInfo struct {
	requester algebra.Symbol
	conds     []algebra.Symbol
}

// promiseClaim is a promise this actor received.
type promiseClaim struct {
	target   algebra.Symbol
	site     simnet.SiteID
	conds    []algebra.Symbol
	afterReq bool
}

// GuardSpec is the compiled guard of one polarity together with its
// consensus-elimination set: the symbols whose ¬ literals this actor
// may decide locally (core.EventGuard.LocalNeg).
type GuardSpec struct {
	Guard temporal.Formula
	// LocalNeg maps symbol keys to the symbol for eliminated ¬
	// consensus.
	LocalNeg map[string]algebra.Symbol
}

// New creates an actor for the base event at the site, with the guard
// specs for both polarities (⊤ when a polarity is unconstrained).  The
// hooks may be nil.
func New(base algebra.Symbol, site simnet.SiteID, dir *Directory, hooks *Hooks,
	pos, neg GuardSpec) *Actor {
	base = base.Base()
	comp := base.Complement()
	a := &Actor{base: base, site: site, dir: dir, hooks: hooks}
	a.pols = [2]polarity{
		{sym: base, key: base.Key(), progPol: gprog.PolPos, guard: pos.Guard, localNeg: pos.LocalNeg},
		{sym: comp, key: comp.Key(), progPol: gprog.PolNeg, guard: neg.Guard, localNeg: neg.LocalNeg},
	}
	a.ordered = [2]*polarity{&a.pols[0], &a.pols[1]}
	if a.ordered[1].key < a.ordered[0].key {
		a.ordered[0], a.ordered[1] = a.ordered[1], a.ordered[0]
	}
	return a
}

// AttachProgram switches the actor to compiled-guard mode: a per-actor
// mutable State over the shared immutable program assimilates every
// fact alongside know, and decide consults its bitset verdict before
// falling back to the formula trees.  Attach before any message flows;
// the program must be compiled from the same guard specs New received.
func (a *Actor) AttachProgram(p *gprog.Prog) {
	if p == nil {
		a.prog = nil
		return
	}
	a.prog = p.NewState()
	// The knowledge ends up holding the program's symbols plus this
	// actor's own pair, which fire records.
	a.know.SizeHint(p.Syms() + 2)
}

// SyncProgram rebuilds the program state from the actor's knowledge —
// the resynchronization point after wholesale knowledge mutation
// (snapshot Restore).
func (a *Actor) SyncProgram() {
	if a.prog != nil {
		a.prog.Sync(&a.know)
	}
}

// The observe/hold/unhold/markImpossible wrappers are the only paths
// that mutate a.know during the protocol: they keep the compiled
// program's bitmasks in lockstep with the knowledge map.

func (a *Actor) observe(s algebra.Symbol, t int64) {
	a.know.Observe(s, t)
	if a.prog != nil {
		a.prog.Observe(s, t)
	}
}

func (a *Actor) markImpossible(s algebra.Symbol) {
	a.know.MarkImpossible(s)
	if a.prog != nil {
		a.prog.MarkImpossible(s)
	}
}

func (a *Actor) hold(s algebra.Symbol) {
	a.know.Hold(s)
	if a.prog != nil {
		a.prog.Hold(s)
	}
}

func (a *Actor) unhold(s algebra.Symbol) {
	a.know.Unhold(s)
	if a.prog != nil {
		a.prog.Unhold(s)
	}
}

// localView returns the knowledge to decide a polarity with: when the
// consensus-elimination analysis marked ¬f literals as locally
// decidable and this actor has produced no enabling fact (no
// occurrence and no outstanding promise on either polarity), the
// still-unknown eliminated symbols are treated as held — f cannot have
// occurred without our cooperation, so no agreement round trip is
// needed.
func (a *Actor) localView(p *polarity) *temporal.Knowledge {
	ln := p.localNeg
	if len(ln) == 0 || !a.localFactsClean() {
		return &a.know
	}
	view := a.know.Clone()
	for _, f := range ln {
		if view.Status(f) == temporal.StatusUnknown {
			view.Hold(f)
		}
	}
	return view
}

// missingConds lists the not-yet-covered conditions of the polarity's
// claims: the events to inquire about next so a commit wave can close.
func (a *Actor) missingConds(p *polarity) []algebra.Symbol {
	seen := map[string]algebra.Symbol{}
	for _, c := range p.promiseClaims {
		for _, cond := range c.conds {
			if cond.Key() == p.sym.Key() || cond.SameEvent(a.base) {
				continue
			}
			if _, claimed := p.promiseClaims[cond.Key()]; claimed {
				continue
			}
			if a.know.Status(cond) == temporal.StatusOccurred {
				continue
			}
			seen[cond.Key()] = cond
		}
	}
	out := make([]algebra.Symbol, 0, len(seen))
	for _, c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// decideWave tries to satisfy some product of the guard using the
// received conditional promises: each product defines its own
// candidate commit wave.  A product qualifies when every literal is
// either decided true by the view or is a single-event ◇ covered by a
// live claim; the wave then closes over the claims' conditions and
// must be internally consistent (no event together with its
// complement, and an event x with ¬x in the product only when its
// promise is ordered after this event's occurrence).
func (a *Actor) decideWave(p *polarity, g temporal.Formula) (map[string]bool, bool) {
	if len(p.promiseClaims) == 0 {
		return nil, false
	}
	view := a.localView(p)
	for _, prod := range g.Products() {
		wave := map[string]bool{}
		ok := true
		var negs []algebra.Symbol
		for _, l := range prod.Lits() {
			if l.Kind() == temporal.LitNotYet {
				negs = append(negs, l.Sym())
			}
			switch view.DecideLit(l) {
			case temporal.True:
				continue
			case temporal.False:
				ok = false
			default:
				if l.Kind() == temporal.LitEventually && len(l.Syms()) == 1 {
					t := l.Syms()[0]
					if _, have := p.promiseClaims[t.Key()]; have &&
						a.know.Status(t) != temporal.StatusImpossible {
						wave[t.Key()] = true
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
func (a *Actor) closeWave(p *polarity, wave map[string]bool) bool {
	for changed := true; changed; {
		changed = false
		for k := range wave {
			for _, cond := range p.promiseClaims[k].conds {
				ck := cond.Key()
				if ck == p.sym.Key() || wave[ck] ||
					a.know.Status(cond) == temporal.StatusOccurred {
					continue
				}
				if _, have := p.promiseClaims[ck]; !have ||
					a.know.Status(cond) == temporal.StatusImpossible {
					return false
				}
				wave[ck] = true
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
func (a *Actor) waveConsistent(p *polarity, wave map[string]bool, negs []algebra.Symbol) bool {
	for k := range wave {
		c := p.promiseClaims[k]
		if wave[c.target.Complement().Key()] || c.target.SameEvent(a.base) {
			return false
		}
	}
	for _, x := range negs {
		if wave[x.Key()] && !p.promiseClaims[x.Key()].afterReq {
			return false
		}
	}
	return true
}

// Base returns the actor's base event symbol.
func (a *Actor) Base() algebra.Symbol { return a.base }

// Site returns the actor's site.
func (a *Actor) Site() simnet.SiteID { return a.site }

// GuardOf returns the current (possibly reduced) guard of a polarity.
func (a *Actor) GuardOf(s algebra.Symbol) temporal.Formula {
	if p := a.lookup(s); p != nil {
		return p.guard
	}
	return temporal.Formula{}
}

// residualGuard returns the polarity's knowledge-reduced residual
// guard, re-reducing only when the knowledge changed since the last
// reduction — the stored residual already reflects everything older,
// and reducing it again under unchanged knowledge is the identity.
func (a *Actor) residualGuard(n Net, p *polarity) temporal.Formula {
	g := p.guard
	if v := a.know.Version(); p.reducedVer != v {
		if a.Trace.On() {
			// Compare by key, not by value: a Formula's dynamic type
			// need not be comparable, and the key is only computed once
			// the tracing gate passed.
			before := g.Key()
			g = a.know.Reduce(g)
			if after := g.Key(); after != before {
				a.Trace.Emit(obs.Record{
					Lamport: n.Clock(),
					Kind:    obs.KindResiduate,
					Sym:     p.key,
					Guard:   after,
				})
			}
		} else {
			g = a.know.Reduce(g)
		}
		p.guard = g
		p.reducedVer = v
	}
	return g
}

// Occurred reports whether the polarity has occurred, with its index.
func (a *Actor) Occurred(s algebra.Symbol) (int64, bool) {
	p := a.lookup(s)
	if p == nil || !p.occurred {
		return 0, false
	}
	return p.at, true
}

// Parked reports whether an attempt for the polarity is parked.
func (a *Actor) Parked(s algebra.Symbol) bool {
	p := a.lookup(s)
	return p != nil && p.attempted && !p.occurred && !p.rejected
}

// SetTriggerable marks a polarity as proactively triggerable by the
// scheduler (task attribute, §2).
func (a *Actor) SetTriggerable(s algebra.Symbol) { a.pol(s).triggerable = true }

func (a *Actor) logf(format string, args ...any) {
	if a.Log != nil {
		a.Log("[%s@%s] "+format, append([]any{a.base.Key(), a.site}, args...)...)
	}
}

func (a *Actor) pol(s algebra.Symbol) *polarity {
	p := a.lookup(s)
	if p == nil {
		panic(fmt.Sprintf("actor %s: message about foreign symbol %s", a.base, s))
	}
	return p
}

// lookup returns the polarity whose key is s's, or nil when s is not
// one of this actor's two symbols.
func (a *Actor) lookup(s algebra.Symbol) *polarity {
	k := s.Key()
	for i := range a.pols {
		if a.pols[i].key == k {
			return &a.pols[i]
		}
	}
	return nil
}

// Handle implements simnet.Handler for messages addressed to this
// actor.  Sites hosting several actors demultiplex before calling it.
func (a *Actor) Handle(n *simnet.Network, m simnet.Message) {
	a.Deliver(n, m.Payload)
}

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
	p := a.pol(m.Sym)
	if a.Log != nil { // checked here: the varargs box is per-delivery
		a.logf("attempt %s forced=%v", m.Sym, m.Forced)
	}
	mAttempts.Inc()
	if a.Trace.On() {
		verdict := ""
		if m.Forced {
			verdict = "forced"
		}
		a.Trace.Emit(obs.Record{
			Lamport: n.Clock(),
			Kind:    obs.KindAttempt,
			Sym:     m.Sym.Key(),
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
	if a.know.Status(p.sym) == temporal.StatusImpossible || a.pol(p.sym.Complement()).occurred {
		a.reject(n, p, "complement occurred")
		return
	}
	if p.forced {
		// Non-rejectable events are accepted unconditionally.
		a.fire(n, p)
		return
	}
	a.decide(n, p)
	if first && !p.occurred && !p.rejected {
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
	if m.Sym.SameEvent(a.base) {
		return // our own occurrences are recorded at fire time
	}
	if a.Log != nil { // checked here: the varargs box is per-delivery
		a.logf("announce %s@%d", m.Sym, m.At)
	}
	mAnnouncements.Inc()
	if a.Trace.On() {
		a.Trace.Emit(obs.Record{
			Lamport: n.Clock(),
			Kind:    obs.KindAnnounce,
			Sym:     m.Sym.Key(),
			At:      m.At,
		})
	}
	a.observe(m.Sym, m.At)
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
		for key, info := range p.promisesBy {
			lapsed, due := false, true
			for _, c := range info.conds {
				switch a.know.Status(c) {
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
	// Compiled fast path: the program's bitset verdict settles the two
	// overwhelmingly common delivery outcomes — "guard now true, fire"
	// and "nothing changed, keep waiting on the active round" — with
	// zero allocations and no tree walk.  It is taken only where the
	// resulting message sequence is provably identical to the tree
	// path: no outstanding promise claims (so decideWave cannot
	// trigger), tracing off (the tree path emits residuation/eval
	// records), and, for firing, no open round (whose holds the tree
	// path would trim against the residual formula).  Everything else
	// falls through to the tree path below, which remains the oracle.
	if a.prog != nil && len(p.promiseClaims) == 0 && !a.Trace.On() {
		clean := a.prog.Prog().NeedsLocal(p.progPol) && a.localFactsClean()
		switch {
		case a.prog.Decide(p.progPol, clean) == temporal.True:
			if p.round == nil {
				p.wave = nil
				a.tryFire(n, p)
				return
			}
			// Open round: fall through so the tree path trims the
			// round's holds against the residual before firing.
		case a.prog.Eval(p.progPol) == temporal.False:
			// Permanently false: the residual tree reduces to 0 (the
			// equivalence TestResidualChainAgreement locks in), so
			// reject without materializing it.
			a.endRound(n, p)
			a.reject(n, p, "guard reduced to 0")
			return
		case p.round != nil:
			// Verdict unknown with an inquiry round already in flight:
			// the tree path would re-reduce, trace nothing, find no
			// wave, and skip startRound — a no-op.
			return
		}
	}
	g := a.residualGuard(n, p)
	if g.IsFalse() {
		a.endRound(n, p)
		a.reject(n, p, "guard reduced to 0")
		return
	}
	switch v := a.localView(p).Decide(g); v {
	case temporal.True:
		a.traceEval(n, p, g, "true")
		p.wave = nil
		a.releaseUnneededHolds(n, p, g)
		a.tryFire(n, p)
	case temporal.False, temporal.Unknown:
		if wave, ok := a.decideWave(p, g); ok {
			a.traceEval(n, p, g, "wave")
			p.wave = wave
			a.releaseUnneededHolds(n, p, g)
			a.tryFire(n, p)
			return
		}
		a.traceEval(n, p, g, v.String())
		if p.round == nil {
			a.startRound(n, p, g)
		}
	}
}

func (a *Actor) startRound(n Net, p *polarity, g temporal.Formula) {
	targets := a.localView(p).Unresolved(g)
	targets = append(targets, a.missingConds(p)...)
	// Never inquire about our own event.  Already-claimed targets are
	// re-inquired: the inquiry also (re-)establishes the hold that ¬
	// literals need, and grants are idempotent.
	kept := targets[:0]
	seen := map[string]bool{}
	for _, t := range targets {
		if t.SameEvent(a.base) || seen[t.Key()] {
			continue
		}
		seen[t.Key()] = true
		kept = append(kept, t)
	}
	if len(kept) == 0 {
		return // nothing to ask; wait for announcements
	}
	a.roundSeq++
	p.round = &round{id: a.roundSeq, pending: map[string]bool{}}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Less(kept[j]) })
	hyp := a.hypothesis(p)
	for _, t := range kept {
		site, err := a.dir.SiteOf(t)
		if err != nil {
			panic(err)
		}
		p.round.pending[t.Key()] = true
		n.Send(a.site, site, InquireMsg{
			Target:    t,
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
	mInquiries.Inc()
	p := a.pol(m.Target)
	put(&p.pastInquirers, m.ReplyTo, true)
	if p.occurred {
		n.Send(a.site, m.ReplyTo, InquireReplyMsg{
			Target: m.Target, Requester: m.Requester, Round: m.Round,
			Occurred: true, At: p.at,
		})
		return
	}
	if a.know.Status(m.Target) == temporal.StatusImpossible || a.pol(m.Target.Complement()).occurred {
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
	put(&p.holdsOnMe, claimKey(m.Requester, m.Round), true)
	hyp := m.Hyp
	if len(hyp) == 0 {
		hyp = []algebra.Symbol{m.Requester}
	}
	promised := false
	conds := hyp
	afterReq := false
	comp := a.pol(m.Target.Complement())
	if existing, already := p.promisesBy[m.Requester.Key()]; already {
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
			put(&p.promisesBy, m.Requester.Key(), promiseInfo{requester: m.Requester, conds: conds})
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
func exclusiveWithAll(compPromises map[string]promiseInfo, requester algebra.Symbol,
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
// beyond the requester's hypothesis: the still-unknown symbols of this
// polarity's guard (bounded, to keep waves small).
func (a *Actor) counterConditions(p *polarity, hyp []algebra.Symbol) []algebra.Symbol {
	const maxExtras = 8
	view := a.know.PermanentClone()
	for _, h := range hyp {
		if view.Status(h) == temporal.StatusUnknown {
			view.Observe(h, math.MaxInt64)
		}
	}
	inHyp := map[string]bool{p.sym.Key(): true}
	for _, h := range hyp {
		inHyp[h.Key()] = true
	}
	var out []algebra.Symbol
	for _, u := range view.Unresolved(p.guard) {
		if inHyp[u.Key()] || u.SameEvent(a.base) {
			continue
		}
		out = append(out, u)
		if len(out) >= maxExtras {
			break
		}
	}
	return out
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
	view := a.know.PermanentClone()
	if ln := p.localNeg; len(ln) > 0 && a.localFactsClean() {
		for _, f := range ln {
			if view.Status(f) == temporal.StatusUnknown {
				view.Hold(f)
			}
		}
	}
	inHyp := map[string]bool{p.sym.Key(): true}
	for _, h := range hypSet {
		if view.Status(h) == temporal.StatusUnknown || view.Status(h) == temporal.StatusHeld {
			// All hypothesis members share one timestamp: they occur
			// in the commit wave, after everything real, in an order
			// the grant must not rely on (ordered ◇-sequences across
			// two hypothesis members evaluate false).
			view.Observe(h, math.MaxInt64)
		}
		inHyp[h.Key()] = true
	}
	// Chained promises this polarity already holds count when their
	// conditions are covered by the hypothesis (they will be
	// discharged in the same commit wave).
	for _, c := range p.promiseClaims {
		covered := true
		for _, cond := range c.conds {
			if !inHyp[cond.Key()] && view.Status(cond) != temporal.StatusOccurred {
				covered = false
				break
			}
		}
		if covered {
			view.CondPromise(c.target)
		}
	}
	return view.Decide(p.guard) == temporal.True
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
	p := a.pol(m.Requester)
	site, siteErr := a.dir.SiteOf(m.Target)
	if siteErr != nil {
		panic(siteErr)
	}
	alive := !p.occurred && !p.rejected
	// Promises persist beyond rounds: accept them whenever the
	// polarity is still undecided, even from a stale round.
	if m.Promised {
		if alive {
			if _, had := p.promiseClaims[m.Target.Key()]; !had {
				p.retry = true // a new claim may close the commit wave
			}
			put(&p.promiseClaims, m.Target.Key(), promiseClaim{
				target: m.Target, site: site, conds: m.Conds, afterReq: m.AfterReq,
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
	delete(p.round.pending, m.Target.Key())
	switch {
	case m.Occurred:
		a.observe(m.Target, m.At)
	case m.Impossible:
		a.markImpossible(m.Target)
	default:
		if m.Held {
			p.round.holds = append(p.round.holds, claim{target: m.Target, site: site})
			a.hold(m.Target)
		}
	}
	if len(p.round.pending) == 0 {
		a.finishRound(n, p)
	}
}

func (a *Actor) finishRound(n Net, p *polarity) {
	g := a.residualGuard(n, p)
	if g.IsFalse() {
		a.endRound(n, p)
		a.reject(n, p, "guard reduced to 0")
		return
	}
	if a.localView(p).Decide(g) == temporal.True {
		a.traceEval(n, p, g, "true")
		// Keep only the holds that back a ¬ literal of the guard; the
		// rest were incidental to the inquiry and would deadlock
		// mutually fire-ready commit waves.
		p.wave = nil
		a.releaseUnneededHolds(n, p, g)
		a.tryFire(n, p) // remaining holds released once the event fires
		return
	}
	if wave, ok := a.decideWave(p, g); ok {
		a.traceEval(n, p, g, "wave")
		p.wave = wave
		a.releaseUnneededHolds(n, p, g)
		a.tryFire(n, p)
		return
	}
	a.traceEval(n, p, g, "unknown")
	a.logf("round for %s inconclusive (guard %s, know %s)", p.sym, g.Key(), a.know.String())
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
		a.unhold(c.target)
	}
	p.round = nil
	a.answerDeferred(n)
}

// settleClaims resolves the polarity's received promises at its end of
// life: on fire, the claims of the chosen commit wave are discharged
// (those events must now occur) and the rest lapse; on rejection,
// everything lapses.
func (a *Actor) settleClaims(n Net, p *polarity, fired bool) {
	// Sorted claim order keeps the release sends — and the simulated
	// delivery sequence they induce — replay-deterministic.
	keys := make([]string, 0, len(p.promiseClaims))
	for k := range p.promiseClaims {
		keys = append(keys, k)
	}
	sort.Strings(keys)
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
// literal of the guard mentions: the decision does not rely on their
// non-occurrence, so freezing them any longer is pointless and can
// deadlock commit waves.
func (a *Actor) releaseUnneededHolds(n Net, p *polarity, g temporal.Formula) {
	if p.round == nil || len(p.round.holds) == 0 {
		return
	}
	needed := map[string]bool{}
	for _, prod := range g.Products() {
		for _, l := range prod.Lits() {
			if l.Kind() == temporal.LitNotYet {
				needed[l.Sym().Key()] = true
			}
		}
	}
	kept := p.round.holds[:0]
	for _, c := range p.round.holds {
		if needed[c.target.Key()] {
			kept = append(kept, c)
			continue
		}
		n.Send(a.site, c.site, ReleaseMsg{
			Target: c.target, Requester: p.sym, Round: p.round.id,
		})
		a.unhold(c.target)
	}
	p.round.holds = kept
}

func (a *Actor) onRelease(n Net, m ReleaseMsg) {
	p := a.pol(m.Target)
	a.logf("release of %s by %s (promise=%v fired=%v)", m.Target, m.Requester, m.Promise, m.Fired)
	if m.Promise {
		_, promised := p.promisesBy[m.Requester.Key()]
		delete(p.promisesBy, m.Requester.Key())
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
		delete(p.holdsOnMe, claimKey(m.Requester, m.Round))
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
	comp := a.pol(p.sym.Complement())
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
		j.JournalFire(a.site, p.sym.Key(), at)
	}
	p.occurred = true
	p.fireReady = false
	p.at = at
	a.observe(p.sym, at)
	if a.Log != nil { // checked here: the varargs box is per-fire
		a.logf("FIRE %s@%d", p.sym, at)
	}
	mFires.Inc()
	if a.Trace.On() {
		a.Trace.Emit(obs.Record{
			Lamport: n.Clock(),
			Kind:    obs.KindFire,
			Sym:     p.sym.Key(),
			At:      at,
		})
	}
	a.hooks.fire(p.sym, at, n.Now())

	for _, site := range a.dir.SubscribersOf(p.sym) {
		n.Send(a.site, site, AnnounceMsg{Sym: p.sym, At: at})
	}
	a.sendDecision(n, p, true, "")
	a.endRound(n, p)
	a.settleClaims(n, p, true)
	// Conditional promises on the fired symbol are discharged by the
	// announcement itself.
	p.promisesBy = nil

	comp := a.pol(p.sym.Complement())
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
		j.JournalReject(a.site, p.sym.Key(), reason)
	}
	a.endRound(n, p)
	a.settleClaims(n, p, false)
	a.logf("REJECT %s: %s", p.sym, reason)
	mRejects.Inc()
	if a.Trace.On() {
		a.Trace.Emit(obs.Record{
			Lamport: n.Clock(),
			Kind:    obs.KindReject,
			Sym:     p.sym.Key(),
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

func claimKey(requester algebra.Symbol, round int) string {
	return fmt.Sprintf("%s#%d", requester.Key(), round)
}
