package temporal

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
)

func TestKnowledgeStatuses(t *testing.T) {
	var k Knowledge
	e, f := sym("e"), sym("f")

	if k.Status(e) != StatusUnknown {
		t.Fatal("fresh knowledge must be unknown")
	}
	k.Observe(e, 5)
	if k.Status(e) != StatusOccurred {
		t.Fatal("observe must record occurrence")
	}
	if ti, ok := k.Time(e); !ok || ti != 5 {
		t.Fatalf("time: got %d,%v", ti, ok)
	}
	if k.Status(e.Complement()) != StatusImpossible {
		t.Fatal("ē must become impossible when e occurs")
	}

	k.Promise(f)
	if k.Status(f) != StatusPromised || k.Status(f.Complement()) != StatusImpossible {
		t.Fatal("promise must record ◇f and make f̄ impossible")
	}
	// A later occurrence upgrades the promise.
	k.Observe(f, 9)
	if k.Status(f) != StatusOccurred {
		t.Fatal("occurrence must override promise")
	}
	// A promise never downgrades an occurrence.
	k.Promise(f)
	if k.Status(f) != StatusOccurred {
		t.Fatal("promise must not downgrade occurrence")
	}

	g := sym("g")
	k.Hold(g)
	if k.Status(g) != StatusHeld {
		t.Fatal("hold must record held")
	}
	k.Unhold(g)
	if k.Status(g) != StatusUnknown {
		t.Fatal("unhold must clear the hold")
	}
	// Holds never overwrite stronger facts.
	k.Hold(e)
	if k.Status(e) != StatusOccurred {
		t.Fatal("hold must not overwrite an occurrence")
	}
}

func TestEvalLitRules(t *testing.T) {
	e := sym("e")
	box, not, dia := Occurred(e), NotYet(e), Eventually(e)

	var k Knowledge
	if k.DecideLit(box) != Unknown || k.DecideLit(not) != Unknown || k.DecideLit(dia) != Unknown {
		t.Fatal("no information: everything unknown")
	}

	// □e announcement: □e, ◇e → ⊤; ¬e → 0.
	k = Knowledge{}
	k.Observe(e, 1)
	if k.DecideLit(box) != True || k.DecideLit(dia) != True || k.DecideLit(not) != False {
		t.Fatal("□e assimilation wrong")
	}

	// ◇e promise: ◇e → ⊤; □e unaffected; ¬e true only at decision time.
	k = Knowledge{}
	k.Promise(e)
	if k.DecideLit(dia) != True {
		t.Fatal("◇e must be true after a promise")
	}
	if k.DecideLit(box) != Unknown {
		t.Fatal("□e must be unaffected by a promise")
	}
	if k.EvalLit(not) != Unknown {
		t.Fatal("¬e must not be permanently rewritten by a promise")
	}
	if k.DecideLit(not) != True {
		t.Fatal("a promise certifies e has not occurred yet, deciding ¬e now")
	}

	// □ē (or ◇ē): □e, ◇e → 0; ¬e → ⊤.
	k = Knowledge{}
	k.Observe(e.Complement(), 2)
	if k.DecideLit(box) != False || k.DecideLit(dia) != False || k.DecideLit(not) != True {
		t.Fatal("□ē assimilation wrong")
	}

	// Hold: decides ¬e at decision time only.
	k = Knowledge{}
	k.Hold(e)
	if k.DecideLit(not) != True {
		t.Fatal("a hold must decide ¬e")
	}
	if k.EvalLit(not) != Unknown {
		t.Fatal("a hold must not permanently rewrite ¬e")
	}
}

func TestEvalSeq(t *testing.T) {
	e, f, g := sym("e"), sym("f"), sym("g")
	l := Eventually(e, f, g)

	var k Knowledge
	if k.EvalLit(l) != Unknown {
		t.Fatal("empty knowledge: unknown")
	}

	// In-order occurrences: true.
	k = Knowledge{}
	k.Observe(e, 1)
	k.Observe(f, 2)
	k.Observe(g, 3)
	if k.EvalLit(l) != True {
		t.Fatal("in-order occurrences must satisfy the sequence")
	}

	// Out-of-order occurrences: false.
	k = Knowledge{}
	k.Observe(f, 1)
	k.Observe(e, 2)
	if k.EvalLit(l) != False {
		t.Fatal("f before e must falsify e·f·g")
	}

	// Impossible member: false.
	k = Knowledge{}
	k.Observe(f.Complement(), 1)
	if k.EvalLit(l) != False {
		t.Fatal("impossible member must falsify")
	}

	// Occurred prefix + final promise: true.
	k = Knowledge{}
	k.Observe(e, 1)
	k.Observe(f, 2)
	k.Promise(g)
	if k.EvalLit(l) != True {
		t.Fatal("occurred prefix + promised tail must satisfy")
	}

	// Promise in the middle then a later occurrence: false (the
	// promised event has not occurred, so the later one jumped ahead).
	k = Knowledge{}
	k.Observe(e, 1)
	k.Promise(f)
	k.Observe(g, 7)
	if k.EvalLit(l) != False {
		t.Fatal("occurrence past a promised member must falsify")
	}

	// Unknown middle + later occurrence: cannot tell.
	k = Knowledge{}
	k.Observe(e, 1)
	k.Observe(g, 7)
	if k.EvalLit(l) != Unknown {
		t.Fatal("unknown middle must stay unknown")
	}

	// Two promised members: order between them unknown.
	k = Knowledge{}
	k.Observe(e, 1)
	k.Promise(f)
	k.Promise(g)
	if k.EvalLit(l) != Unknown {
		t.Fatal("two promised members must stay unknown")
	}
}

func TestReduceRules(t *testing.T) {
	e, f := sym("e"), sym("f")
	// Guard of Example 10/9: G(D_<, f) = ◇ē + □e.
	guard := Or(Lit(Eventually(e.Complement())), Lit(Occurred(e)))

	var k Knowledge
	if got := k.Reduce(guard); !got.Equal(guard) {
		t.Fatalf("no knowledge: guard unchanged, got %q", got.Key())
	}

	k.Observe(e.Complement(), 3)
	if got := k.Reduce(guard); !got.IsTrue() {
		t.Fatalf("after □ē the guard must reduce to ⊤, got %q", got.Key())
	}

	k = Knowledge{}
	k.Observe(e, 3)
	if got := k.Reduce(guard); !got.IsTrue() {
		t.Fatalf("after □e the guard must reduce to ⊤, got %q", got.Key())
	}

	// G(D_<, e) = ¬f: never reduced by transient facts.
	guardE := Lit(NotYet(f))
	k = Knowledge{}
	k.Hold(f)
	if got := k.Reduce(guardE); !got.Equal(guardE) {
		t.Fatalf("a hold must not rewrite ¬f, got %q", got.Key())
	}
	if k.Decide(guardE) != True {
		t.Fatal("a hold must decide ¬f at decision time")
	}
	k = Knowledge{}
	k.Observe(f, 1)
	if got := k.Reduce(guardE); !got.IsFalse() {
		t.Fatalf("after □f the guard ¬f must reduce to 0, got %q", got.Key())
	}
	k = Knowledge{}
	k.Observe(f.Complement(), 1)
	if got := k.Reduce(guardE); !got.IsTrue() {
		t.Fatalf("after □f̄ the guard ¬f must reduce to ⊤, got %q", got.Key())
	}
}

// TestReduceSafety: reducing with a prefix of the facts never changes
// later decisions — Reduce(facts₁)(guard) evaluated under facts₁∪facts₂
// agrees with guard evaluated under facts₁∪facts₂.
func TestReduceSafety(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	names := []string{"e", "f", "g"}
	var pool []Literal
	for _, n := range names {
		pool = append(pool,
			Occurred(sym(n)), Occurred(sym("~"+n)),
			NotYet(sym(n)), Eventually(sym(n)), Eventually(sym("~"+n)))
	}
	pool = append(pool, Eventually(sym("e"), sym("f")), Eventually(sym("g"), sym("e")))

	for iter := 0; iter < 300; iter++ {
		// Random guard.
		var fs []Formula
		for p := 0; p < 1+r.Intn(3); p++ {
			lits := make([]Literal, 1+r.Intn(3))
			for i := range lits {
				lits[i] = pool[r.Intn(len(pool))]
			}
			fs = append(fs, product(lits...))
		}
		guard := Or(fs...)

		// Random consistent fact sequence: pick a maximal trace and
		// reveal occurrences in order, split into two phases.
		a := algebra.NewAlphabet()
		for _, n := range names {
			a.AddPair(algebra.Sym(n))
		}
		mu := algebra.MaximalUniverse(a)
		u := mu[r.Intn(len(mu))]
		split := r.Intn(len(u) + 1)

		var k1 Knowledge
		for i, s := range u[:split] {
			k1.Observe(s, int64(i))
		}
		reduced := k1.Reduce(guard)

		k2 := k1
		for i, s := range u[split:] {
			k2.Observe(s, int64(split+i))
		}
		if got, want := k2.Eval(reduced), k2.Eval(guard); got != want {
			t.Fatalf("iter %d: reduce unsound: guard %q, after %v reduced to %q; under full facts guard=%v reduced=%v",
				iter, guard.Key(), u[:split], reduced.Key(), want, got)
		}
	}
}

func TestKnowledgeString(t *testing.T) {
	var k Knowledge
	if k.String() != "{}" {
		t.Fatalf("empty: %q", k.String())
	}
	k.Observe(sym("e"), 4)
	s := k.String()
	if s == "{}" {
		t.Fatalf("non-empty expected, got %q", s)
	}
}
