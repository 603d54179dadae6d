package actor

import (
	"sort"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/gprog"
	"repro/internal/simnet"
	"repro/internal/symtab"
	"repro/internal/temporal"
)

// newActor builds an actor on the program compiled from the guard pair
// onto the directory's table; every symbol the guards mention must be
// in it.
func newActor(b algebra.Symbol, site simnet.SiteID, dir *Directory, hooks *Hooks, pos, neg gprog.GuardInput) *Actor {
	return New(b, site, dir, hooks, gprog.CompileOn(dir.Table(), pos, neg))
}

// siteOf is a simulator handler hosting the one actor.
func siteOf(a *Actor) simnet.Handler {
	return simnet.HandlerFunc(func(n *simnet.Network, m simnet.Message) { a.Deliver(n, m.Payload) })
}

func sym(k string) algebra.Symbol {
	s, err := algebra.ParseSymbol(k)
	if err != nil {
		panic(err)
	}
	return s
}

// rig wires one actor per base event, each on its own site, with
// guards from a compiled workflow, and collects decisions and the
// global occurrence trace via hooks.
type rig struct {
	net       *simnet.Network
	dir       *Directory
	actors    map[string]*Actor
	decisions []DecisionMsg
	trace     []algebra.Symbol
}

func newRig(t *testing.T, deps ...string) *rig {
	t.Helper()
	w, err := core.ParseWorkflow(deps...)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{
		net:    simnet.New(simnet.LatencyModel{Local: 1, Remote: 50, Jitter: 10}, 1996),
		dir:    NewDirectory(),
		actors: map[string]*Actor{},
	}
	hooks := &Hooks{
		OnFire: func(ann AnnounceMsg, _ simnet.Time) {
			r.trace = append(r.trace, r.dir.Table().Sym(ann.ID))
		},
		OnDecision: func(d DecisionMsg) { r.decisions = append(r.decisions, d) },
	}
	bases := c.Workflow.Alphabet().Bases()
	for _, b := range bases {
		site := simnet.SiteID("site-" + b.Key())
		r.dir.Place(b, site)
	}
	spec := func(s algebra.Symbol) gprog.GuardInput {
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
	for _, b := range bases {
		site := r.dir.Site(r.id(b))
		a := newActor(b, site, r.dir, hooks, spec(b), spec(b.Complement()))
		r.actors[b.Key()] = a
		r.net.AddSite(site, siteOf(a))
		// Subscribe this actor's site to every event its guards watch.
		for _, eg := range []*core.EventGuard{c.Guards[b.Key()], c.Guards[b.Complement().Key()]} {
			if eg == nil {
				continue
			}
			for _, wsym := range eg.Watches {
				r.dir.Subscribe(wsym, site)
			}
		}
	}
	return r
}

// id is the symbol's id in the rig's table.
func (r *rig) id(s algebra.Symbol) symtab.ID { return r.dir.Table().MustLookup(s) }

// attempt injects an attempt for the symbol at its actor's site.
func (r *rig) attempt(t *testing.T, s algebra.Symbol, forced bool) {
	t.Helper()
	site := r.dir.Site(r.id(s))
	r.net.Send(site, site, AttemptMsg{ID: r.id(s), Forced: forced})
}

func (r *rig) run() { r.net.Run(100000) }

func (r *rig) traceKeys() []string {
	out := make([]string, len(r.trace))
	for i, s := range r.trace {
		out[i] = s.Key()
	}
	return out
}

func (r *rig) decisionOf(s algebra.Symbol) (DecisionMsg, bool) {
	for _, d := range r.decisions {
		if d.ID == r.id(s) {
			return d, true
		}
	}
	return DecisionMsg{}, false
}

// TestExample10 replays Example 10 on real actors: under D_<, f
// attempted first is parked; ē occurs right away; learning □ē enables
// f.
func TestExample10(t *testing.T) {
	r := newRig(t, "~e + ~f + e . f")
	r.attempt(t, sym("f"), false)
	r.run()
	if len(r.trace) != 0 {
		t.Fatalf("f must be parked, trace %v", r.traceKeys())
	}
	if !r.actors["f"].Parked(sym("f")) {
		t.Fatal("f must be parked at its actor")
	}
	r.attempt(t, sym("~e"), false)
	r.run()
	got := r.traceKeys()
	if len(got) != 2 || got[0] != "~e" || got[1] != "f" {
		t.Fatalf("expected <~e f>, got %v", got)
	}
	if d, ok := r.decisionOf(sym("f")); !ok || !d.Accepted {
		t.Fatal("f must be accepted after ē")
	}
}

// TestDLessOrdering: under D_<, attempting e then f yields <e f>; the
// reverse attempt order parks f until e occurs.
func TestDLessOrdering(t *testing.T) {
	r := newRig(t, "~e + ~f + e . f")
	r.attempt(t, sym("e"), false)
	r.run()
	if got := r.traceKeys(); len(got) != 1 || got[0] != "e" {
		t.Fatalf("e must fire immediately (guard ¬f): %v", got)
	}
	r.attempt(t, sym("f"), false)
	r.run()
	if got := r.traceKeys(); len(got) != 2 || got[1] != "f" {
		t.Fatalf("f must fire after e: %v", got)
	}
}

// TestDLessForbidsReverse: under D_<, if f somehow occurs first
// (enabled by ◇ē), a later attempt of e must be rejected.
func TestDLessForbidsReverse(t *testing.T) {
	r := newRig(t, "~e + ~f + e . f")
	r.attempt(t, sym("~e"), false) // makes ◇ē true, enabling f
	r.attempt(t, sym("f"), false)
	r.run()
	r.attempt(t, sym("e"), false)
	r.run()
	if d, ok := r.decisionOf(sym("e")); !ok || d.Accepted {
		t.Fatalf("e must be rejected after ē occurred (decision %+v)", d)
	}
	got := r.traceKeys()
	if len(got) != 2 {
		t.Fatalf("trace: %v", got)
	}
}

// TestExample11Consensus: with D_→ and its transpose, e's guard is ◇f
// and f's guard is ◇e; attempting both must let both occur via the
// conditional-promise protocol.
func TestExample11Consensus(t *testing.T) {
	r := newRig(t, "~e + f", "~f + e")
	r.attempt(t, sym("e"), false)
	r.attempt(t, sym("f"), false)
	r.run()
	got := r.traceKeys()
	if len(got) != 2 {
		t.Fatalf("both events must occur, got %v", got)
	}
	set := map[string]bool{got[0]: true, got[1]: true}
	if !set["e"] || !set["f"] {
		t.Fatalf("expected e and f, got %v", got)
	}
}

// TestExample11OneSided: with only e attempted, the promise request
// finds f unattempted and e stays parked — no spurious firing.
func TestExample11OneSided(t *testing.T) {
	r := newRig(t, "~e + f", "~f + e")
	r.attempt(t, sym("e"), false)
	r.run()
	if len(r.trace) != 0 {
		t.Fatalf("e must stay parked without f, got %v", r.traceKeys())
	}
	if !r.actors["e"].Parked(sym("e")) {
		t.Fatal("e must be parked")
	}
	// When f is attempted later, its own round secures the promise.
	r.attempt(t, sym("f"), false)
	r.run()
	if len(r.trace) != 2 {
		t.Fatalf("both must fire once f arrives, got %v", r.traceKeys())
	}
}

// TestHoldAgreement: e guarded by ¬f (from D_<) must secure agreement
// with f's actor before firing; f's later attempt sees □e and fires.
func TestHoldAgreement(t *testing.T) {
	r := newRig(t, "~e + ~f + e . f")
	// e's guard is ¬f: e's actor cannot know f's status locally —
	// the inquiry/hold round trip decides it.
	r.attempt(t, sym("e"), false)
	r.run()
	if got := r.traceKeys(); len(got) != 1 || got[0] != "e" {
		t.Fatalf("e must fire under the hold agreement: %v", got)
	}
	// The hold must have been released: f can now proceed (□e).
	r.attempt(t, sym("f"), false)
	r.run()
	if got := r.traceKeys(); len(got) != 2 || got[1] != "f" {
		t.Fatalf("f must fire after release: %v", got)
	}
	a := r.actors["f"]
	if len(a.polOf(sym("f")).holdsOnMe) != 0 {
		t.Fatal("hold on f must be released")
	}
}

// TestMutualExclusionOrders: dependencies e<f and f<e together mean
// not both may occur; with both attempted plus one complement, exactly
// one fires and the other is rejected.
func TestMutualExclusionOrders(t *testing.T) {
	r := newRig(t, "~e + ~f + e . f", "~f + ~e + f . e")
	r.attempt(t, sym("e"), false)
	r.attempt(t, sym("f"), false)
	r.run()
	// Both park: each needs the other's complement guaranteed.
	if len(r.trace) != 0 {
		t.Fatalf("nothing may fire yet, got %v", r.traceKeys())
	}
	r.attempt(t, sym("~f"), false)
	r.run()
	got := r.traceKeys()
	sort.Strings(got)
	if len(got) != 2 || got[0] != "e" || got[1] != "~f" {
		t.Fatalf("expected e and ~f to occur, got %v", r.traceKeys())
	}
	if d, ok := r.decisionOf(sym("f")); !ok || d.Accepted {
		t.Fatalf("f must be rejected, decision %+v", d)
	}
}

// TestForcedAttempt: a forced (non-rejectable) event fires regardless
// of its guard.
func TestForcedAttempt(t *testing.T) {
	r := newRig(t, "~e + ~f + e . f")
	r.attempt(t, sym("f"), true) // guard not ⊤, but forced
	r.run()
	if got := r.traceKeys(); len(got) != 1 || got[0] != "f" {
		t.Fatalf("forced f must fire: %v", got)
	}
	// e is now impossible to schedule legally: guard ¬f is false.
	r.attempt(t, sym("e"), false)
	r.run()
	if d, ok := r.decisionOf(sym("e")); !ok || d.Accepted {
		t.Fatalf("e must be rejected after forced f, decision %+v", d)
	}
}

// TestDuplicateAttemptIdempotent: re-attempting an occurred event
// reports acceptance again without re-firing.
func TestDuplicateAttemptIdempotent(t *testing.T) {
	r := newRig(t, "~e + f")
	r.attempt(t, sym("~e"), false)
	r.run()
	r.attempt(t, sym("~e"), false)
	r.run()
	if len(r.trace) != 1 {
		t.Fatalf("ē must fire exactly once, got %v", r.traceKeys())
	}
	count := 0
	for _, d := range r.decisions {
		if d.ID == r.id(sym("~e")) && d.Accepted {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("expected two accept decisions, got %d", count)
	}
}

// TestComplementExclusion: once e occurs, attempting ē is rejected —
// and vice versa, within a single actor.
func TestComplementExclusion(t *testing.T) {
	r := newRig(t, "~e + f")
	r.attempt(t, sym("~e"), false)
	r.run()
	r.attempt(t, sym("e"), false)
	r.run()
	if d, ok := r.decisionOf(sym("e")); !ok || d.Accepted {
		t.Fatalf("e after ē must be rejected: %+v", d)
	}
	if len(r.trace) != 1 {
		t.Fatalf("trace %v", r.traceKeys())
	}
}

// TestParkedComplementRejectedOnFire: with both e and ē attempted (ē
// parked), e's occurrence must reject ē.
func TestParkedComplementRejectedOnFire(t *testing.T) {
	r := newRig(t, "~e + f", "~f + e")
	// ē's guard under D_→ is ⊤... attempt ē and e simultaneously; ē is
	// decided first or e parks on ◇f.  Use the one-dependency case
	// for determinism:
	r2 := newRig(t, "~e + ~f + e . f")
	r2.attempt(t, sym("e"), false)  // fires (guard ¬f via hold)
	r2.attempt(t, sym("~e"), false) // races; whichever wins, the other must lose
	r2.run()
	accE, accNotE := false, false
	if d, ok := r2.decisionOf(sym("e")); ok && d.Accepted {
		accE = true
	}
	if d, ok := r2.decisionOf(sym("~e")); ok && d.Accepted {
		accNotE = true
	}
	if accE == accNotE {
		t.Fatalf("exactly one of e/ē must be accepted: e=%v ē=%v trace=%v",
			accE, accNotE, r2.traceKeys())
	}
	_ = r
}

// TestTraceSatisfiesWorkflow: whatever occurs under the actors
// satisfies every dependency, across several attempt schedules.
func TestTraceSatisfiesWorkflow(t *testing.T) {
	schedules := [][]string{
		{"e", "f"},
		{"f", "e"},
		{"~e", "f", "e"},
		{"f", "~e"},
		{"e", "~f"},
	}
	for _, sched := range schedules {
		r := newRig(t, "~e + ~f + e . f")
		for _, k := range sched {
			r.attempt(t, sym(k), false)
			r.run()
		}
		// Close out: resolve undecided events with their complements.
		for _, b := range []string{"e", "f"} {
			a := r.actors[b]
			if _, occ := a.Occurred(sym(b)); occ {
				continue
			}
			if _, occ := a.Occurred(sym("~" + b)); occ {
				continue
			}
			r.attempt(t, sym("~"+b), false)
			r.run()
		}
		u := algebra.Trace(r.trace)
		if !u.Valid() {
			t.Fatalf("schedule %v produced invalid trace %v", sched, u)
		}
		d := algebra.MustParse("~e + ~f + e . f")
		if u.MaximalOver(d.Gamma()) && !u.Satisfies(d) {
			t.Fatalf("schedule %v: trace %v violates D_<", sched, u)
		}
	}
}

// TestGuardReductionVisible: after □ē arrives, f's stored guard
// reduces to ⊤ per the §4.3 proof rules.
func TestGuardReductionVisible(t *testing.T) {
	r := newRig(t, "~e + ~f + e . f")
	fActor := r.actors["f"]
	before := fActor.GuardOf(sym("f"))
	if before.IsTrue() {
		t.Fatalf("f's guard must start constrained, got %q", before.Key())
	}
	r.attempt(t, sym("~e"), false)
	r.run()
	// Attempt f so the actor re-reduces its guard.
	r.attempt(t, sym("f"), false)
	r.run()
	after := fActor.GuardOf(sym("f"))
	if !after.IsTrue() {
		t.Fatalf("f's guard must reduce to ⊤ after □ē, got %q", after.Key())
	}
}

func TestDirectoryErrors(t *testing.T) {
	d := NewDirectory()
	if site := d.Site(symtab.ID(d.Table().Len())); site != "" {
		t.Fatalf("an id past the table has no site, got %q", site)
	}
	d.Place(sym("e"), "s1")
	if site := d.Site(d.Table().MustLookup(sym("~e"))); site != "s1" {
		t.Fatalf("complement resolves to same site: %q", site)
	}
	d.Subscribe(sym("e"), "s2")
	d.Subscribe(sym("e"), "s2") // idempotent
	if got := d.SubscribersOf(d.Table().MustLookup(sym("~e"))); len(got) != 1 || got[0] != "s2" {
		t.Fatalf("subscribers: %v", got)
	}
	if got := d.Events(); len(got) != 1 || got[0] != "e" {
		t.Fatalf("events: %v", got)
	}
}

// TestKnowledgeIsolation: actors only learn about events they watch;
// an unrelated event's occurrence is not announced to them.
func TestKnowledgeIsolation(t *testing.T) {
	r := newRig(t, "~e + f", "g")
	r.attempt(t, sym("g"), false)
	r.run()
	eActor := r.actors["e"]
	if eActor.status(eActor.sid(sym("g"))) != temporal.StatusUnknown {
		t.Fatal("e's actor must not hear about g")
	}
}

// GuardOf returns a polarity's residual guard: its guard reduced by
// the actor's permanent facts.
func (a *Actor) GuardOf(s algebra.Symbol) temporal.Formula {
	if p := a.lookupSym(s); p != nil {
		return a.prog.Residual(p.pol())
	}
	return temporal.Formula{}
}

// Occurred reports whether the polarity has occurred, with its index.
func (a *Actor) Occurred(s algebra.Symbol) (int64, bool) {
	p := a.lookupSym(s)
	if p == nil || !p.occurred {
		return 0, false
	}
	return p.at, true
}

// Parked reports whether an attempt for the polarity is parked.
func (a *Actor) Parked(s algebra.Symbol) bool {
	p := a.lookupSym(s)
	return p != nil && p.attempted && !p.occurred && !p.rejected
}

// sid is the symbol's id in the actor's table.
func (a *Actor) sid(s algebra.Symbol) symtab.ID { return a.tab.MustLookup(s) }

// sids is sid for a list of symbol texts.
func (a *Actor) sids(keys ...string) []symtab.ID {
	out := make([]symtab.ID, len(keys))
	for i, k := range keys {
		out[i] = a.sid(sym(k))
	}
	return out
}

// polOf is pol for a symbol given by name.
func (a *Actor) polOf(s algebra.Symbol) *polarity { return a.pol(a.sid(s)) }

// lookupSym is lookup for a symbol given by name; nil when the table
// does not hold it.
func (a *Actor) lookupSym(s algebra.Symbol) *polarity {
	id, ok := a.tab.Lookup(s)
	if !ok {
		return nil
	}
	return a.lookup(id)
}
