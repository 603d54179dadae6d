package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/actor"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/symtab"
	"repro/internal/temporal"
)

// CentralSite is where the centralized schedulers live.
const CentralSite simnet.SiteID = "central"

// central is a central site: the global history, the refused symbols
// and the parked attempts, with the decision rule of one centralized
// baseline.  Attempts whose fate the history already fixes are decided
// here; admits decides the rest.
type central struct {
	tab      *symtab.Table
	hooks    *actor.Hooks
	occurred map[string]int64
	rejected map[string]bool
	parked   []parkedAttempt
	// admits decides an unforced attempt the history leaves open: True
	// lets it occur, False refuses it for the reason given, and Unknown
	// parks it until a later occurrence.
	admits func(s algebra.Symbol) (temporal.Tri, string)
	// advance brings the decision rule's state up to an occurrence.
	advance func(s algebra.Symbol, at int64)
}

type parkedAttempt struct {
	sym         algebra.Symbol
	replyTo     simnet.SiteID
	attemptedAt simnet.Time
}

func newCentral(tab *symtab.Table, hooks *actor.Hooks) *central {
	return &central{tab: tab, hooks: hooks, occurred: map[string]int64{}, rejected: map[string]bool{}}
}

// Handle processes attempts at the central site.
func (c *central) Handle(n *simnet.Network, m simnet.Message) {
	msg, ok := m.Payload.(actor.AttemptMsg)
	if !ok {
		panic(fmt.Sprintf("sched: central: unexpected payload %T", m.Payload))
	}
	p := parkedAttempt{sym: msg.Sym, replyTo: msg.ReplyTo, attemptedAt: n.Now()}
	k := p.sym.Key()
	switch {
	case c.occurred[k] != 0:
		c.decide(n, p.sym, p.replyTo, p.attemptedAt, true, "already occurred")
		return
	case c.rejected[k]:
		c.decide(n, p.sym, p.replyTo, p.attemptedAt, false, "already rejected")
		return
	case c.occurred[p.sym.Complement().Key()] != 0:
		c.refuse(n, p, "complement occurred")
		return
	}
	v, reason := temporal.True, ""
	if !msg.Forced {
		v, reason = c.admits(msg.Sym)
	}
	switch v {
	case temporal.True:
		c.occur(n, p)
		c.drainParked(n)
	case temporal.False:
		c.refuse(n, p, reason)
	default:
		c.parked = append(c.parked, p)
	}
}

// occur makes the attempted symbol occur and accepts the attempt.
func (c *central) occur(n *simnet.Network, p parkedAttempt) {
	at := n.NextOccurrence()
	c.occurred[p.sym.Key()] = at
	c.advance(p.sym, at)
	if c.hooks != nil && c.hooks.OnFire != nil {
		c.hooks.OnFire(actor.AnnounceMsg{Sym: p.sym, ID: c.tab.MustLookup(p.sym), At: at}, n.Now())
	}
	c.decide(n, p.sym, p.replyTo, p.attemptedAt, true, "")
}

// refuse rejects the attempt, and every later attempt of its symbol.
func (c *central) refuse(n *simnet.Network, p parkedAttempt, reason string) {
	c.rejected[p.sym.Key()] = true
	c.decide(n, p.sym, p.replyTo, p.attemptedAt, false, reason)
}

// drainParked re-examines parked attempts after an occurrence: those
// whose complement occurred are rejected, others may have become
// decidable.  Acceptance can cascade.
func (c *central) drainParked(n *simnet.Network) {
	for progress := true; progress; {
		progress = false
		kept := c.parked[:0]
		for _, p := range c.parked {
			if c.occurred[p.sym.Complement().Key()] != 0 {
				c.refuse(n, p, "complement occurred")
				progress = true
				continue
			}
			switch v, reason := c.admits(p.sym); v {
			case temporal.True:
				c.occur(n, p)
				progress = true
			case temporal.False:
				c.refuse(n, p, reason)
				progress = true
			default:
				kept = append(kept, p)
			}
		}
		c.parked = kept
	}
}

func (c *central) decide(n *simnet.Network, s algebra.Symbol, replyTo simnet.SiteID,
	attemptedAt simnet.Time, accepted bool, reason string) {
	d := actor.DecisionMsg{
		Sym: s, ID: c.tab.MustLookup(s), Accepted: accepted, At: c.occurred[s.Key()],
		AttemptedAt: attemptedAt, DecidedAt: n.Now(), Reason: reason,
	}
	if c.hooks != nil && c.hooks.OnDecision != nil {
		c.hooks.OnDecision(d)
	}
	if replyTo != "" {
		n.Send(CentralSite, replyTo, d)
	}
}

// centralState is the decision rule of the two dependency-centric
// baselines; the stepper abstracts residuation vs automata.
type centralState struct {
	*central
	stepper stepper
	// bases are the workflow's base events; unresolved ones take part
	// in the joint-satisfiability search.
	bases []algebra.Symbol
}

// stepper is the per-dependency state machine interface.
type stepper interface {
	// peek returns the dependency residuals that accepting the symbol
	// would produce, without mutating the state.
	peek(s algebra.Symbol) []*algebra.Expr
	// advance steps every dependency's state by the symbol.
	advance(s algebra.Symbol)
}

// residuationStepper steps dependencies symbolically (§3.3).
type residuationStepper struct {
	residuals []*algebra.Expr
}

func newResiduationStepper(w *core.Workflow) *residuationStepper {
	rs := &residuationStepper{}
	for _, d := range w.Deps {
		rs.residuals = append(rs.residuals, algebra.CNF(d))
	}
	return rs
}

func (rs *residuationStepper) peek(s algebra.Symbol) []*algebra.Expr {
	out := make([]*algebra.Expr, len(rs.residuals))
	for i, r := range rs.residuals {
		out[i] = algebra.Residuate(r, s)
	}
	return out
}

func (rs *residuationStepper) advance(s algebra.Symbol) {
	for i, r := range rs.residuals {
		rs.residuals[i] = algebra.Residuate(r, s)
	}
}

// automatonStepper precompiles each dependency's reachable residuals
// into an indexed DFA (the approach of reference [2]) and steps by
// table lookup.
type automatonStepper struct {
	dfas   []*dfa
	states []int
}

type dfa struct {
	// next[state][symbolKey] = successor state; symbols outside the
	// dependency's alphabet leave the state unchanged.
	next []map[string]int
	// exprs holds each state's residual expression (for the joint
	// satisfiability search).
	exprs []*algebra.Expr
	zero  int // index of the 0 state, or -1
}

// newAutomatonStepper compiles the workflow's dependencies to DFAs.
func newAutomatonStepper(w *core.Workflow) *automatonStepper {
	as := &automatonStepper{}
	for _, d := range w.Deps {
		as.dfas = append(as.dfas, compileDFA(d))
		as.states = append(as.states, 0)
	}
	return as
}

func compileDFA(d *algebra.Expr) *dfa {
	states := algebra.Reachable(d)
	keys := make([]string, 0, len(states))
	for k := range states {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	index := map[string]int{}
	// State 0 is the initial residual (CNF of d).
	start := algebra.CNF(d).Key()
	index[start] = 0
	next := 1
	for _, k := range keys {
		if k == start {
			continue
		}
		index[k] = next
		next++
	}
	a := &dfa{
		next:  make([]map[string]int, len(index)),
		exprs: make([]*algebra.Expr, len(index)),
		zero:  -1,
	}
	if z, ok := index["0"]; ok {
		a.zero = z
	}
	for k, edges := range states {
		row := map[string]int{}
		for symKey, succ := range edges {
			row[symKey] = index[succ.Key()]
		}
		a.next[index[k]] = row
		expr, err := algebra.Parse(k)
		if err != nil {
			panic(fmt.Sprintf("sched: unparseable residual %q: %v", k, err))
		}
		a.exprs[index[k]] = expr
	}
	return a
}

func (as *automatonStepper) peek(s algebra.Symbol) []*algebra.Expr {
	k := s.Key()
	out := make([]*algebra.Expr, len(as.dfas))
	for i, a := range as.dfas {
		st := as.states[i]
		if succ, ok := a.next[st][k]; ok {
			st = succ
		}
		out[i] = a.exprs[st]
	}
	return out
}

func (as *automatonStepper) advance(s algebra.Symbol) {
	k := s.Key()
	for i, a := range as.dfas {
		if succ, ok := a.next[as.states[i]][k]; ok {
			as.states[i] = succ
		}
	}
}

func newCentralState(tab *symtab.Table, st stepper, hooks *actor.Hooks, bases []algebra.Symbol) *centralState {
	cs := &centralState{central: newCentral(tab, hooks), stepper: st, bases: bases}
	cs.admits = func(s algebra.Symbol) (temporal.Tri, string) {
		if cs.acceptable(s) {
			return temporal.True, ""
		}
		return temporal.Unknown, ""
	}
	cs.advance = func(s algebra.Symbol, _ int64) { st.advance(s) }
	return cs
}

// acceptable reports whether the symbol may occur now: the advanced
// residuals must remain jointly satisfiable by some maximal completion
// of the remaining events.  Per-dependency residuation alone (§3.3,
// "the remnant of the dependency yet to be enforced") accepts events
// that doom the conjunction — e.g. leaving one residual at c and
// another at c̄ — so the centralized schedulers check the joint
// condition, up to a search budget.
func (cs *centralState) acceptable(s algebra.Symbol) bool {
	residuals := cs.stepper.peek(s)
	var remaining []algebra.Symbol
	for _, b := range cs.bases {
		if b.SameEvent(s) {
			continue
		}
		if cs.occurred[b.Key()] != 0 || cs.occurred[b.Complement().Key()] != 0 {
			continue
		}
		remaining = append(remaining, b)
	}
	budget := satBudget
	memo := map[string]bool{}
	return jointSatisfiable(residuals, remaining, memo, &budget)
}

// satBudget bounds the satisfiability search; on exhaustion the event
// is optimistically accepted (the behavior of the plain §3.3 rule).
const satBudget = 50_000

// jointSatisfiable reports whether some maximal completion over the
// remaining events drives every residual to a λ-satisfied state.
func jointSatisfiable(residuals []*algebra.Expr, remaining []algebra.Symbol,
	memo map[string]bool, budget *int) bool {
	if *budget <= 0 {
		return true // budget exhausted: optimistic
	}
	*budget--
	// Dead residual: no completion exists.
	mentioned := map[string]bool{}
	for _, r := range residuals {
		if r.IsZero() {
			return false
		}
		for k := range r.Gamma() {
			mentioned[k] = true
		}
	}
	// Events no residual mentions resolve freely; drop them.
	live := remaining[:0:0]
	for _, b := range remaining {
		if mentioned[b.Key()] || mentioned[b.Complement().Key()] {
			live = append(live, b)
		}
	}
	if len(live) == 0 {
		for _, r := range residuals {
			if !(algebra.Trace{}).Satisfies(r) {
				return false
			}
		}
		return true
	}
	key := stateKey(residuals, live)
	if v, ok := memo[key]; ok {
		return v
	}
	memo[key] = false // cycle guard (states only advance, but be safe)
	ok := false
	for i, b := range live {
		rest := make([]algebra.Symbol, 0, len(live)-1)
		rest = append(rest, live[:i]...)
		rest = append(rest, live[i+1:]...)
		for _, sym := range []algebra.Symbol{b, b.Complement()} {
			next := make([]*algebra.Expr, len(residuals))
			for j, r := range residuals {
				next[j] = algebra.Residuate(r, sym)
			}
			if jointSatisfiable(next, rest, memo, budget) {
				ok = true
				break
			}
		}
		if ok {
			break
		}
	}
	memo[key] = ok
	return ok
}

func stateKey(residuals []*algebra.Expr, remaining []algebra.Symbol) string {
	n := 0
	for _, r := range residuals {
		n += len(r.Key()) + 1
	}
	b := make([]byte, 0, n+len(remaining)*6)
	for _, r := range residuals {
		b = append(b, r.Key()...)
		b = append(b, ';')
	}
	b = append(b, '|')
	for _, s := range remaining {
		b = append(b, s.Key()...)
		b = append(b, ',')
	}
	return string(b)
}

// centralSubmitter routes every attempt to the central site, which
// decides by name; messages carry the run plan's symbol ids.
type centralSubmitter struct {
	tab *symtab.Table
}

func (centralSubmitter) DecisionSite(algebra.Symbol) simnet.SiteID { return CentralSite }

func (c centralSubmitter) Attempt(n *simnet.Network, origin simnet.SiteID,
	s algebra.Symbol, forced bool, replyTo simnet.SiteID) {
	mAttempts.Inc()
	n.Send(origin, CentralSite, actor.AttemptMsg{Sym: s, ID: c.tab.MustLookup(s), Forced: forced, ReplyTo: replyTo})
}

// installCentral wires the centralized scheduler of the kind at the
// central site.
func installCentral(n *simnet.Network, tab *symtab.Table, c *core.Compiled, kind Kind, hooks *actor.Hooks) {
	var site *central
	switch kind {
	case CentralGuards:
		site = newGuardCentral(tab, c, hooks).central
	case CentralAutomata:
		site = newCentralState(tab, newAutomatonStepper(c.Workflow), hooks, sortedBases(c.Workflow)).central
	default:
		site = newCentralState(tab, newResiduationStepper(c.Workflow), hooks, sortedBases(c.Workflow)).central
	}
	n.AddSite(CentralSite, site)
}

// guardCentral is the Günthör-style baseline the paper's conclusions
// mention ("Günthör's approach is based on temporal logic, but
// centralized"): a single site holds every compiled guard and the
// global occurrence history, and admits an event exactly when its
// guard is true of that history.  It shares the distributed
// scheduler's decision semantics minus the protocol — and the
// centralized schedulers' single-site bottleneck.
type guardCentral struct {
	*central
	compiled *core.Compiled
	know     temporal.Knowledge
	// residual caches the knowledge-reduced guard per event, with the
	// knowledge version it was reduced at; re-attempts and drainParked
	// passes re-reduce the residual only when the history grew instead
	// of reducing the full compiled formula every time.
	residual   map[string]temporal.Formula
	reducedVer map[string]uint64
	// obligations are the admitted events' open obligations.
	obligations []obligation
}

func newGuardCentral(tab *symtab.Table, c *core.Compiled, hooks *actor.Hooks) *guardCentral {
	gc := &guardCentral{
		central:    newCentral(tab, hooks),
		compiled:   c,
		residual:   map[string]temporal.Formula{},
		reducedVer: map[string]uint64{},
	}
	gc.admits, gc.advance = gc.admit, gc.observe
	return gc
}

// admit decides an unforced attempt of s.  Its guard must hold of the
// history (evalGuard), and its occurrence now must leave every earlier
// acceptance's obligation a viable product.  An attempt that would
// break one waits while a later occurrence of s could keep it, and is
// refused once none could.  Admitting s promises its guard's ◇
// requirements and records its obligation.
func (gc *guardCentral) admit(s algebra.Symbol) (temporal.Tri, string) {
	v, promises := gc.evalGuard(s)
	if v != temporal.True {
		return v, "guard false"
	}
	for _, ob := range gc.obligations {
		switch {
		case gc.viable(ob, s, math.MaxInt64):
		case gc.viable(ob, s, 0):
			v = temporal.Unknown
		default:
			return temporal.False, "breaks an accepted obligation"
		}
	}
	if v == temporal.True {
		for _, p := range promises {
			gc.know.Promise(p)
		}
		if ob := gc.obligationOf(s); len(ob) > 0 {
			gc.obligations = append(gc.obligations, ob)
		}
	}
	return v, ""
}

// evalGuard evaluates the compiled guard against the global history
// and decides eagerly, with the central scheduler's authority: a ◇
// requirement whose unoccurred members are still possible is accepted
// — the unoccurred members of the first viable product are returned
// for admit to promise, which makes their complements impossible to
// later guards.  ¬ literals are immediately decidable because the
// history is complete.
func (gc *guardCentral) evalGuard(s algebra.Symbol) (temporal.Tri, []algebra.Symbol) {
	k := s.Key()
	g, cached := gc.residual[k]
	if !cached {
		g = gc.compiled.GuardOf(s)
	}
	if v := gc.know.Version(); !cached || gc.reducedVer[k] != v {
		g = gc.know.Reduce(g)
		gc.residual[k] = g
		gc.reducedVer[k] = v
	}
	if g.IsTrue() {
		return temporal.True, nil
	}
	if g.IsFalse() {
		return temporal.False, nil
	}
	for _, p := range g.Products() {
		if open, ok := gc.product(p, true); ok {
			var promises []algebra.Symbol
			for _, l := range open {
				for _, m := range l.Syms() {
					if gc.occurred[m.Key()] == 0 {
						promises = append(promises, m)
					}
				}
			}
			return temporal.True, promises
		}
	}
	// No product is viable now; parked attempts are retried as the
	// history grows (permanent falsity is caught by Reduce above).
	return temporal.Unknown, nil
}

// obligation is what an admitted event still needs of the future: the
// products of its guard that were viable when it occurred, each cut to
// its unmet ◇ literals (its □ and ¬ literals were decided then).  The
// guard holds at the event's occurrence exactly when one of them comes
// true, so by Theorem 6 a maximal trace that meets none of them
// violates the workflow.  Unlike the promises, which commit to one
// product, an obligation keeps every alternative open.
type obligation [][]temporal.Literal

// obligationOf is the obligation s's guard puts on the future if s
// occurs now; nil when a product already holds.
func (gc *guardCentral) obligationOf(s algebra.Symbol) obligation {
	var ob obligation
	for _, p := range gc.compiled.GuardOf(s).Products() {
		if open, ok := gc.product(p, false); ok {
			if len(open) == 0 {
				return nil
			}
			ob = append(ob, open)
		}
	}
	return ob
}

// product checks one guard product against the complete history: □
// and ¬ literals decide outright, and every ◇ literal must still be
// able to occur in order (seqViable; with promised, no member's
// complement may be promised either).  It returns the ◇ literals not
// yet met.
func (gc *guardCentral) product(p temporal.Product, promised bool) ([]temporal.Literal, bool) {
	var open []temporal.Literal
	for _, l := range p.Lits() {
		ok, met := true, true
		switch l.Kind() {
		case temporal.LitOccurred:
			ok = gc.occurred[l.Sym().Key()] != 0
		case temporal.LitNotYet:
			ok = gc.occurred[l.Sym().Key()] == 0
		case temporal.LitEventually:
			ok, met = gc.seqViable(l.Syms(), algebra.Symbol{}, 0, promised)
		}
		if !ok {
			return nil, false
		}
		if !met {
			open = append(open, l)
		}
	}
	return open, true
}

// viable reports whether some product of the obligation can still come
// true if s occurs at sAt (see seqViable).
func (gc *guardCentral) viable(ob obligation, s algebra.Symbol, sAt int64) bool {
	for _, p := range ob {
		ok := true
		for _, l := range p {
			if ok, _ = gc.seqViable(l.Syms(), s, sAt, false); !ok {
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// seqViable reports whether the ◇ sequence can still occur in order —
// no member impossible, the occurred members an in-order prefix — and
// whether it already has.  A non-zero s is taken to occur at sAt
// (math.MaxInt64: next; 0: at some later point), which makes its
// complement impossible; with promised, so is every member whose
// complement was promised.
func (gc *guardCentral) seqViable(seq []algebra.Symbol, s algebra.Symbol, sAt int64, promised bool) (viable, met bool) {
	var sKey, compKey string
	if s.Name != "" {
		sKey, compKey = s.Key(), s.Complement().Key()
	}
	last := int64(0)
	met = true
	for _, m := range seq {
		k := m.Key()
		at := gc.occurred[k]
		switch {
		case k == compKey, gc.occurred[m.Complement().Key()] != 0,
			promised && gc.know.Status(m) == temporal.StatusImpossible:
			return false, false
		case k == sKey:
			at = sAt
		}
		if at == 0 {
			met = false
			continue
		}
		if !met || at <= last {
			return false, false
		}
		last = at
	}
	return true, met
}

// observe records an occurrence in the knowledge and drops the
// obligations a forced occurrence broke: nothing can keep them any
// more.
func (gc *guardCentral) observe(s algebra.Symbol, at int64) {
	gc.know.Observe(s, at)
	kept := gc.obligations[:0]
	for _, ob := range gc.obligations {
		if gc.viable(ob, algebra.Symbol{}, 0) {
			kept = append(kept, ob)
		}
	}
	gc.obligations = kept
}
