package sched

import (
	"fmt"
	"sort"

	"repro/internal/actor"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/symtab"
	"repro/internal/temporal"
)

// CentralSite is where both centralized schedulers live.
const CentralSite simnet.SiteID = "central"

// centralState is the shared machinery of the two centralized
// baselines; the stepper abstracts residuation vs automata.
type centralState struct {
	tab      *symtab.Table
	stepper  stepper
	hooks    *actor.Hooks
	occurred map[string]int64
	rejected map[string]bool
	parked   []parkedAttempt
	// bases are the workflow's base events; unresolved ones take part
	// in the joint-satisfiability search.
	bases []algebra.Symbol
	// peakParked tracks queueing at the central site.
	peakParked int
}

type parkedAttempt struct {
	sym         algebra.Symbol
	replyTo     simnet.SiteID
	attemptedAt simnet.Time
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

// StateCount returns the total number of DFA states (a compile-size
// metric for the benchmarks).
func (as *automatonStepper) StateCount() int {
	n := 0
	for _, a := range as.dfas {
		n += len(a.next)
	}
	return n
}

func newCentralState(tab *symtab.Table, st stepper, hooks *actor.Hooks, bases []algebra.Symbol) *centralState {
	return &centralState{
		tab:      tab,
		stepper:  st,
		hooks:    hooks,
		occurred: map[string]int64{},
		rejected: map[string]bool{},
		bases:    bases,
	}
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

// Handle processes attempts at the central site.
func (cs *centralState) Handle(n *simnet.Network, m simnet.Message) {
	msg, ok := m.Payload.(actor.AttemptMsg)
	if !ok {
		panic(fmt.Sprintf("sched: central: unexpected payload %T", m.Payload))
	}
	cs.onAttempt(n, msg, n.Now())
}

func (cs *centralState) onAttempt(n *simnet.Network, m actor.AttemptMsg, attemptedAt simnet.Time) {
	k := m.Sym.Key()
	switch {
	case cs.occurred[k] != 0:
		cs.decide(n, m.Sym, m.ReplyTo, attemptedAt, true, "already occurred")
		return
	case cs.rejected[k]:
		cs.decide(n, m.Sym, m.ReplyTo, attemptedAt, false, "already rejected")
		return
	case cs.occurred[m.Sym.Complement().Key()] != 0:
		cs.rejected[k] = true
		cs.decide(n, m.Sym, m.ReplyTo, attemptedAt, false, "complement occurred")
		return
	}
	if m.Forced || cs.acceptable(m.Sym) {
		cs.fire(n, m.Sym, m.ReplyTo, attemptedAt)
		return
	}
	cs.parked = append(cs.parked, parkedAttempt{sym: m.Sym, replyTo: m.ReplyTo, attemptedAt: attemptedAt})
	if len(cs.parked) > cs.peakParked {
		cs.peakParked = len(cs.parked)
	}
}

func (cs *centralState) fire(n *simnet.Network, s algebra.Symbol, replyTo simnet.SiteID, attemptedAt simnet.Time) {
	at := n.NextOccurrence()
	cs.occurred[s.Key()] = at
	cs.stepper.advance(s)
	if cs.hooks != nil && cs.hooks.OnFire != nil {
		cs.hooks.OnFire(actor.AnnounceMsg{Sym: s, ID: cs.tab.Add(s), At: at}, n.Now())
	}
	cs.decide(n, s, replyTo, attemptedAt, true, "")
	cs.drainParked(n, s)
}

// drainParked re-examines parked attempts after an occurrence: the
// complement's parked attempt is rejected; others may have become
// acceptable.  Acceptance can cascade.
func (cs *centralState) drainParked(n *simnet.Network, justFired algebra.Symbol) {
	comp := justFired.Complement().Key()
	for progress := true; progress; {
		progress = false
		kept := cs.parked[:0]
		for _, p := range cs.parked {
			switch {
			case p.sym.Key() == comp || cs.occurred[p.sym.Complement().Key()] != 0:
				cs.rejected[p.sym.Key()] = true
				cs.decide(n, p.sym, p.replyTo, p.attemptedAt, false, "complement occurred")
				progress = true
			case cs.acceptable(p.sym):
				at := n.NextOccurrence()
				cs.occurred[p.sym.Key()] = at
				cs.stepper.advance(p.sym)
				if cs.hooks != nil && cs.hooks.OnFire != nil {
					cs.hooks.OnFire(actor.AnnounceMsg{Sym: p.sym, ID: cs.tab.Add(p.sym), At: at}, n.Now())
				}
				cs.decide(n, p.sym, p.replyTo, p.attemptedAt, true, "")
				progress = true
			default:
				kept = append(kept, p)
			}
		}
		cs.parked = kept
	}
}

func (cs *centralState) decide(n *simnet.Network, s algebra.Symbol, replyTo simnet.SiteID,
	attemptedAt simnet.Time, accepted bool, reason string) {
	d := actor.DecisionMsg{
		Sym: s, ID: cs.tab.Add(s), Accepted: accepted, At: cs.occurred[s.Key()],
		AttemptedAt: attemptedAt, DecidedAt: n.Now(), Reason: reason,
	}
	if cs.hooks != nil && cs.hooks.OnDecision != nil {
		cs.hooks.OnDecision(d)
	}
	if replyTo != "" {
		n.Send(CentralSite, replyTo, d)
	}
}

// centralSubmitter routes every attempt to the central site.  The
// central site decides by name, and interns an out-of-alphabet symbol
// an agent attempts the first time it meets it.
type centralSubmitter struct {
	tab *symtab.Table
}

func (centralSubmitter) DecisionSite(algebra.Symbol) simnet.SiteID { return CentralSite }

func (c centralSubmitter) Attempt(n *simnet.Network, origin simnet.SiteID,
	s algebra.Symbol, forced bool, replyTo simnet.SiteID) {
	mAttempts.Inc()
	n.Send(origin, CentralSite, actor.AttemptMsg{Sym: s, ID: c.tab.Add(s), Forced: forced, ReplyTo: replyTo})
}

// installCentral wires a centralized scheduler (residuation or
// automata per kind) and client agent sites.
func installCentral(n *simnet.Network, tab *symtab.Table, c *core.Compiled, kind Kind,
	hooks *actor.Hooks) (Submitter, *centralState) {
	var st stepper
	if kind == CentralAutomata {
		st = newAutomatonStepper(c.Workflow)
	} else {
		st = newResiduationStepper(c.Workflow)
	}
	cs := newCentralState(tab, st, hooks, sortedBases(c.Workflow))
	n.AddSite(CentralSite, cs)
	return centralSubmitter{tab: tab}, cs
}

// guardCentral is the Günthör-style baseline the paper's conclusions
// mention ("Günthör's approach is based on temporal logic, but
// centralized"): a single site holds every compiled guard and the
// global occurrence history, and admits an event exactly when its
// guard is true of that history.  It shares the distributed
// scheduler's decision semantics minus the protocol — and the
// centralized schedulers' single-site bottleneck.
type guardCentral struct {
	tab      *symtab.Table
	compiled *core.Compiled
	hooks    *actor.Hooks
	know     temporal.Knowledge
	occurred map[string]int64
	rejected map[string]bool
	parked   []parkedAttempt
	// residual caches the knowledge-reduced guard per event, with the
	// knowledge version it was reduced at; re-attempts and drainParked
	// passes re-reduce the residual only when the history grew instead
	// of reducing the full compiled formula every time.
	residual   map[string]temporal.Formula
	reducedVer map[string]uint64
}

func newGuardCentral(tab *symtab.Table, c *core.Compiled, hooks *actor.Hooks) *guardCentral {
	return &guardCentral{
		tab:        tab,
		compiled:   c,
		hooks:      hooks,
		occurred:   map[string]int64{},
		rejected:   map[string]bool{},
		residual:   map[string]temporal.Formula{},
		reducedVer: map[string]uint64{},
	}
}

func (gc *guardCentral) Handle(n *simnet.Network, m simnet.Message) {
	msg, ok := m.Payload.(actor.AttemptMsg)
	if !ok {
		panic(fmt.Sprintf("sched: guard central: unexpected payload %T", m.Payload))
	}
	gc.onAttempt(n, msg, n.Now())
}

func (gc *guardCentral) onAttempt(n *simnet.Network, m actor.AttemptMsg, attemptedAt simnet.Time) {
	k := m.Sym.Key()
	switch {
	case gc.occurred[k] != 0:
		gc.decide(n, m.Sym, m.ReplyTo, attemptedAt, true, "already occurred")
		return
	case gc.rejected[k]:
		gc.decide(n, m.Sym, m.ReplyTo, attemptedAt, false, "already rejected")
		return
	case gc.occurred[m.Sym.Complement().Key()] != 0:
		gc.rejected[k] = true
		gc.decide(n, m.Sym, m.ReplyTo, attemptedAt, false, "complement occurred")
		return
	}
	if m.Forced {
		gc.fire(n, m.Sym, m.ReplyTo, attemptedAt)
		return
	}
	switch gc.evalGuard(m.Sym) {
	case temporal.True:
		gc.fire(n, m.Sym, m.ReplyTo, attemptedAt)
	case temporal.False:
		gc.rejected[k] = true
		gc.decide(n, m.Sym, m.ReplyTo, attemptedAt, false, "guard false")
	default:
		gc.parked = append(gc.parked, parkedAttempt{sym: m.Sym, replyTo: m.ReplyTo, attemptedAt: attemptedAt})
	}
}

// evalGuard evaluates the compiled guard against the global history
// and decides eagerly, with the central scheduler's authority: a ◇
// requirement whose unoccurred members are still possible is accepted
// as an obligation — the members are promised (bindingly), so their
// complements are rejected from then on.  ¬ literals are immediately
// decidable because the history is complete.
func (gc *guardCentral) evalGuard(s algebra.Symbol) temporal.Tri {
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
		return temporal.True
	}
	if g.IsFalse() {
		return temporal.False
	}
	for _, p := range g.Products() {
		if obligations, ok := gc.productViable(p); ok {
			for _, ob := range obligations {
				gc.know.Promise(ob)
			}
			return temporal.True
		}
	}
	// No product is viable now; parked attempts are retried as the
	// history grows (permanent falsity is caught by Reduce above).
	return temporal.Unknown
}

// productViable checks one guard product against the complete history:
// □ and ¬ literals decide outright, and ◇ literals are viable when no
// member is impossible and the occurred members form an in-order
// prefix — the unoccurred suffix becomes the acceptance's obligations.
func (gc *guardCentral) productViable(p temporal.Product) ([]algebra.Symbol, bool) {
	var obligations []algebra.Symbol
	for _, l := range p.Lits() {
		switch l.Kind() {
		case temporal.LitOccurred:
			if gc.know.Status(l.Sym()) != temporal.StatusOccurred {
				return nil, false
			}
		case temporal.LitNotYet:
			if gc.know.Status(l.Sym()) == temporal.StatusOccurred {
				return nil, false
			}
		case temporal.LitEventually:
			lastOcc := int64(-1)
			inPrefix := true
			for _, m := range l.Syms() {
				switch gc.know.Status(m) {
				case temporal.StatusImpossible:
					return nil, false
				case temporal.StatusOccurred:
					if !inPrefix {
						return nil, false // occurred after an unoccurred member
					}
					t, _ := gc.know.Time(m)
					if t <= lastOcc {
						return nil, false // out of order
					}
					lastOcc = t
				default:
					inPrefix = false
					obligations = append(obligations, m)
				}
			}
		}
	}
	return obligations, true
}

func (gc *guardCentral) fire(n *simnet.Network, s algebra.Symbol, replyTo simnet.SiteID, attemptedAt simnet.Time) {
	at := n.NextOccurrence()
	gc.occurred[s.Key()] = at
	gc.know.Observe(s, at)
	if gc.hooks != nil && gc.hooks.OnFire != nil {
		gc.hooks.OnFire(actor.AnnounceMsg{Sym: s, ID: gc.tab.Add(s), At: at}, n.Now())
	}
	gc.decide(n, s, replyTo, attemptedAt, true, "")
	gc.drainParked(n, s)
}

func (gc *guardCentral) drainParked(n *simnet.Network, justFired algebra.Symbol) {
	for progress := true; progress; {
		progress = false
		kept := gc.parked[:0]
		for _, p := range gc.parked {
			switch {
			case gc.occurred[p.sym.Complement().Key()] != 0:
				gc.rejected[p.sym.Key()] = true
				gc.decide(n, p.sym, p.replyTo, p.attemptedAt, false, "complement occurred")
				progress = true
			default:
				switch gc.evalGuard(p.sym) {
				case temporal.True:
					at := n.NextOccurrence()
					gc.occurred[p.sym.Key()] = at
					gc.know.Observe(p.sym, at)
					if gc.hooks != nil && gc.hooks.OnFire != nil {
						gc.hooks.OnFire(actor.AnnounceMsg{Sym: p.sym, ID: gc.tab.Add(p.sym), At: at}, n.Now())
					}
					gc.decide(n, p.sym, p.replyTo, p.attemptedAt, true, "")
					progress = true
				case temporal.False:
					gc.rejected[p.sym.Key()] = true
					gc.decide(n, p.sym, p.replyTo, p.attemptedAt, false, "guard false")
					progress = true
				default:
					kept = append(kept, p)
				}
			}
		}
		gc.parked = kept
	}
	_ = justFired
}

func (gc *guardCentral) decide(n *simnet.Network, s algebra.Symbol, replyTo simnet.SiteID,
	attemptedAt simnet.Time, accepted bool, reason string) {
	d := actor.DecisionMsg{
		Sym: s, ID: gc.tab.Add(s), Accepted: accepted, At: gc.occurred[s.Key()],
		AttemptedAt: attemptedAt, DecidedAt: n.Now(), Reason: reason,
	}
	if gc.hooks != nil && gc.hooks.OnDecision != nil {
		gc.hooks.OnDecision(d)
	}
	if replyTo != "" {
		n.Send(CentralSite, replyTo, d)
	}
}
