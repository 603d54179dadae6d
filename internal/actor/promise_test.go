package actor

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/gprog"
	"repro/internal/simnet"
	"repro/internal/symtab"
	"repro/internal/temporal"
)

func TestExclusiveWithAll(t *testing.T) {
	a, b := sym("a"), sym("b")
	existing := map[symtab.ID]promiseInfo{
		2: {requester: sym("r1"), conds: []algebra.Symbol{sym("r1"), sym("~x")}},
	}
	// Candidate containing x is exclusive with the existing promise
	// (x vs ~x): allowed.
	if !exclusiveWithAll(existing, a, []algebra.Symbol{a, sym("x")}) {
		t.Error("opposite-polarity condition sets must be exclusive")
	}
	// Candidate sharing no opposite pair: forbidden.
	if exclusiveWithAll(existing, b, []algebra.Symbol{b, sym("y")}) {
		t.Error("compatible condition sets must be rejected")
	}
	// Requester polarity itself can provide the exclusivity.
	existing2 := map[symtab.ID]promiseInfo{
		2: {requester: sym("~a"), conds: []algebra.Symbol{sym("~a")}},
	}
	if !exclusiveWithAll(existing2, a, []algebra.Symbol{a}) {
		t.Error("complementary requesters are exclusive")
	}
	// No outstanding promises: always allowed.
	if !exclusiveWithAll(nil, a, []algebra.Symbol{a}) {
		t.Error("empty promise set must allow")
	}
}

// promiseRig builds a lone actor with controllable guards for direct
// unit tests of the grant machinery.
func promiseRig(base string, guardPos temporal.Formula) *Actor {
	dir := NewDirectory()
	b := sym(base)
	dir.Place(b, "site")
	// The requesters the tests hypothesize are plan events too.
	for _, r := range []string{"r", "r1", "r2"} {
		dir.Place(sym(r), "requesters")
	}
	internGuard(dir, guardPos)
	return newActor(b, "site", dir, nil, gprog.GuardInput{Guard: guardPos}, gprog.GuardInput{Guard: temporal.TrueF()})
}

func TestGrantCondsDirect(t *testing.T) {
	// Guard ◇r: sound with hyp {r} alone.
	a := promiseRig("x", temporal.Lit(temporal.Eventually(sym("r"))))
	p := a.polSym(sym("x"))
	p.attempted = true
	conds, ok := a.grantConds(p, []algebra.Symbol{sym("r")})
	if !ok || len(conds) != 1 || !conds[0].Equal(sym("r")) {
		t.Fatalf("direct grant: %v %v", conds, ok)
	}
}

func TestGrantCondsCounterCondition(t *testing.T) {
	// Guard ◇z: the hypothesis {r} does not help; the grant must add z
	// as a counter-condition.
	a := promiseRig("x", temporal.Lit(temporal.Eventually(sym("z"))))
	p := a.polSym(sym("x"))
	p.attempted = true
	conds, ok := a.grantConds(p, []algebra.Symbol{sym("r")})
	if !ok {
		t.Fatal("counter-conditioned grant must succeed")
	}
	found := false
	for _, c := range conds {
		if c.Equal(sym("z")) {
			found = true
		}
	}
	if !found {
		t.Fatalf("conds must include z: %v", conds)
	}
}

func TestGrantCondsRefusesNegatives(t *testing.T) {
	// Guard ¬r: hypothesizing the requester's occurrence falsifies it;
	// no counter-condition can help.
	a := promiseRig("x", temporal.Lit(temporal.NotYet(sym("r"))))
	p := a.polSym(sym("x"))
	p.attempted = true
	if _, ok := a.grantConds(p, []algebra.Symbol{sym("r")}); ok {
		t.Fatal("grant against ¬requester must fail")
	}
}

func TestOrderedAfter(t *testing.T) {
	// Guard □r: the event cannot fire before r really occurs.
	a := promiseRig("x", temporal.Lit(temporal.Occurred(sym("r"))))
	p := a.polSym(sym("x"))
	if !a.orderedAfter(p, sym("r"), []algebra.Symbol{sym("r")}) {
		t.Error("□r guard must be ordered after the requester")
	}
	// Guard ⊤: could fire any time.
	b := promiseRig("y", temporal.TrueF())
	q := b.polSym(sym("y"))
	if b.orderedAfter(q, sym("r"), []algebra.Symbol{sym("r")}) {
		t.Error("unconstrained event is not ordered after the requester")
	}
}

func TestPromiseSoundRejectsOrderedHypotheses(t *testing.T) {
	// Guard ◇(a·b): both a and b in the hypothesis share one
	// timestamp, so the ordered sequence must not be assumed.
	a := promiseRig("x", temporal.Lit(temporal.Eventually(sym("a"), sym("b"))))
	p := a.polSym(sym("x"))
	if a.promiseSound(p, []algebra.Symbol{sym("a"), sym("b")}) {
		t.Fatal("multi-member ◇ sequences must not be satisfied by unordered hypotheses")
	}
	// With a really occurred first, the single remaining member may be
	// hypothesized.
	a.prog.Observe(sym("a"), 1)
	if !a.promiseSound(p, []algebra.Symbol{sym("b")}) {
		t.Fatal("the remaining suffix may be hypothesized")
	}
}

// TestPromiseLapseOnImpossibleRequester: a promise to a requester that
// can never occur lapses when the requester's rejection releases it.
func TestPromiseLapseOnImpossibleRequester(t *testing.T) {
	// a needs both ◇b and ◇c; b is triggerable (grants a promise),
	// c is neither attempted nor triggerable (keeps a parked).
	r := newRig(t, "~a + b", "~a + c")
	bActor := r.actors["b"]
	bActor.SetTriggerable(sym("b"))

	r.attempt(t, sym("a"), false)
	r.run()
	if len(bActor.polSym(sym("b")).promisesBy) == 0 {
		t.Fatal("b must have promised a")
	}
	if len(r.trace) != 0 {
		t.Fatalf("a must stay parked (needs c too), trace %v", r.traceKeys())
	}

	// ~a occurs: a is rejected, its claims are released unfired, and
	// b's promise lapses — b's complement is no longer blocked.
	r.attempt(t, sym("~a"), false)
	r.run()
	if n := len(bActor.polSym(sym("b")).promisesBy); n != 0 {
		t.Fatalf("promise must lapse after ~a, still %d outstanding", n)
	}
	r.attempt(t, sym("~b"), false)
	r.run()
	if _, occurred := bActor.Occurred(sym("~b")); !occurred {
		t.Fatal("~b must be free to occur after the lapse")
	}
}

// TestDualPolarityPromises: one actor may promise both polarities only
// under mutually exclusive conditions; both requesters' runs stay
// legal.
func TestDualPolarityPromises(t *testing.T) {
	// x's event is wanted by r1 (◇x, if c_buy-style commit) and ~x by
	// r2 (◇~x, abort path): conditions r1 vs r2 are not complementary,
	// so the second grant must be refused while the first stands.
	a := promiseRig("x", temporal.TrueF())
	px := a.polSym(sym("x"))
	pnx := a.polSym(sym("~x"))
	px.attempted = true
	pnx.attempted = true

	px.promisesBy = map[symtab.ID]promiseInfo{}
	px.promisesBy[2] = promiseInfo{requester: sym("r1"), conds: []algebra.Symbol{sym("r1")}}
	if exclusiveWithAll(px.promisesBy, sym("r2"), []algebra.Symbol{sym("r2")}) {
		t.Fatal("~x promise to r2 must be blocked by x's promise to r1")
	}
	if !exclusiveWithAll(px.promisesBy, sym("~r1"), []algebra.Symbol{sym("~r1")}) {
		t.Fatal("~x promise conditional on ~r1 is exclusive with x's promise to r1")
	}
}

// TestPromisePersistsAcrossRounds: an inconclusive round keeps its
// promise claims, which a later round's hold completes into a fire.
func TestPromisePersistsAcrossRounds(t *testing.T) {
	// e needs ¬f ∧ ◇g (constructed guard); g promises early, the hold
	// on f arrives in a later round.
	dir := NewDirectory()
	for _, name := range []string{"e", "f", "g"} {
		dir.Place(sym(name), simnet.SiteID("s-"+name))
	}
	guard := temporal.And(
		temporal.Lit(temporal.NotYet(sym("f"))),
		temporal.Lit(temporal.Eventually(sym("g"))),
	)
	net := simnet.New(simnet.LatencyModel{Local: 1, Remote: 10}, 1)
	var fired []string
	hooks := &Hooks{OnFire: func(ann AnnounceMsg, _ simnet.Time) {
		fired = append(fired, ann.Sym.Key())
	}}
	eActor := newActor(sym("e"), "s-e", dir, hooks, gprog.GuardInput{Guard: guard}, gprog.GuardInput{Guard: temporal.TrueF()})
	fActor := newActor(sym("f"), "s-f", dir, hooks, gprog.GuardInput{Guard: temporal.TrueF()}, gprog.GuardInput{Guard: temporal.TrueF()})
	gActor := newActor(sym("g"), "s-g", dir, hooks, gprog.GuardInput{Guard: temporal.Lit(temporal.Occurred(sym("e")))}, gprog.GuardInput{Guard: temporal.TrueF()})
	net.AddSite("s-e", siteOf(eActor))
	net.AddSite("s-f", siteOf(fActor))
	net.AddSite("s-g", siteOf(gActor))
	dir.Subscribe(sym("e"), "s-g")
	dir.Subscribe(sym("g"), "s-e")
	dir.Subscribe(sym("f"), "s-e")

	// e attempts; g is attempted too so it can promise (its guard □e
	// orders it after e).
	net.Send("s-g", "s-g", AttemptMsg{Sym: sym("g"), ID: dir.Table().MustLookup(sym("g"))})
	net.Send("s-e", "s-e", AttemptMsg{Sym: sym("e"), ID: dir.Table().MustLookup(sym("e"))})
	net.Run(10000)
	if len(fired) < 2 {
		t.Fatalf("e and then g must fire, got %v", fired)
	}
	if fired[0] != "e" || fired[1] != "g" {
		t.Fatalf("order must be e then g, got %v", fired)
	}
	if _, ok := eActor.Occurred(sym("e")); !ok {
		t.Fatal("e must have occurred")
	}
}

func TestAccessorsAndStrings(t *testing.T) {
	a := promiseRig("ev", temporal.TrueF())
	if a.base.Key() != "ev" || a.Site() != "site" {
		t.Error("accessors")
	}
	if a.GuardOf(sym("ev")).Key() != "T" {
		t.Error("GuardOf")
	}
	msgs := []interface{ String() string }{
		AttemptMsg{Sym: sym("ev")},
		AnnounceMsg{Sym: sym("ev"), At: 3},
		InquireMsg{Target: sym("x"), Requester: sym("ev"), Round: 1},
		InquireReplyMsg{Target: sym("x"), Requester: sym("ev"), Round: 1, Held: true},
		ReleaseMsg{Target: sym("x"), Requester: sym("ev"), Round: 1},
		DecisionMsg{Sym: sym("ev"), Accepted: true},
	}
	for _, m := range msgs {
		if m.String() == "" {
			t.Errorf("empty string for %T", m)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("foreign symbol must panic")
		}
	}()
	a.polSym(sym("other"))
}

func TestActorLogging(t *testing.T) {
	r := newRig(t, "~e + ~f + e . f")
	var lines int
	for _, a := range r.actors {
		a.Log = func(string, ...any) { lines++ }
	}
	r.attempt(t, sym("e"), false)
	r.run()
	if lines == 0 {
		t.Error("logging hook must fire")
	}
}

// TestDeferredInquiryAnswered: a deferred inquiry is answered once the
// deferring round completes.
func TestDeferredInquiryAnswered(t *testing.T) {
	// Deps give both a and b guards watching each other's complement
	// eventualities; attempting both concurrently exercises deferral
	// (a's actor has priority over requester b).
	r := newRig(t, "~a + ~b + a . b", "~b + ~a + b . a")
	r.attempt(t, sym("a"), false)
	r.attempt(t, sym("b"), false)
	r.run()
	// Resolve via a complement; everything must still terminate.
	r.attempt(t, sym("~b"), false)
	r.run()
	if len(r.actors["a"].deferred)+len(r.actors["b"].deferred) != 0 {
		t.Fatal("deferred inquiries must drain")
	}
}

// internGuard adds every symbol the guards mention to the directory's
// table, so a lone test actor can resolve the names its protocol
// messages carry.
func internGuard(dir *Directory, guards ...temporal.Formula) {
	for _, g := range guards {
		for _, prod := range g.Products() {
			for _, l := range prod.Lits() {
				for _, s := range l.Syms() {
					dir.Table().Add(s)
				}
			}
		}
	}
}
