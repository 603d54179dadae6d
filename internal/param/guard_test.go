package param

import (
	"testing"

	"repro/internal/temporal"
)

// TestExample14 replays Example 14 step by step: the guard on e[x] is
// ¬f[y] + □g[y] with y unbound.
func TestExample14(t *testing.T) {
	guard := NewParamGuard(temporal.Or(
		temporal.Lit(temporal.NotYet(sym("f[?y]"))),
		temporal.Lit(temporal.Occurred(sym("g[?y]"))),
	))
	var h History

	// Initially none of the f[y]'s has happened: ¬f[y] is true for all
	// y, so e[x] can go ahead.
	if got := guard.Eval(&h); got != temporal.True {
		t.Fatalf("initial: got %v want true", got)
	}

	// f[y1] happens: the guard grows to □g[y1] | (¬f[y] + □g[y]) and
	// is neither ⊤ nor 0 — e[x] must wait.
	h.Observe(sym("f[y1]"), 1)
	if got := guard.Eval(&h); got != temporal.Unknown {
		t.Fatalf("after f[y1]: got %v want unknown", got)
	}
	cur := guard.Current(&h)
	if cur.IsTrue() || cur.IsFalse() {
		t.Fatalf("after f[y1]: current guard must be a real constraint, got %q", cur.Key())
	}
	if got := cur.Key(); got != temporal.And(
		guard.Template,
		temporal.Lit(temporal.Occurred(sym("g[y1]"))),
	).Key() {
		t.Fatalf("after f[y1]: current guard %q", got)
	}

	// □g[y1] arrives: the instance is discharged and the guard is
	// reduced back to the template — e[x] is once again enabled.
	h.Observe(sym("g[y1]"), 2)
	if got := guard.Eval(&h); got != temporal.True {
		t.Fatalf("after g[y1]: got %v want true", got)
	}
	if !guard.Current(&h).Equal(guard.Template) {
		t.Fatalf("after g[y1]: guard must resurrect to the template, got %q",
			guard.Current(&h).Key())
	}

	// A second iteration (loops!): f[y2] re-constrains the guard.
	h.Observe(sym("f[y2]"), 3)
	if got := guard.Eval(&h); got != temporal.Unknown {
		t.Fatalf("after f[y2]: got %v want unknown", got)
	}
	h.Observe(sym("g[y2]"), 4)
	if got := guard.Eval(&h); got != temporal.True {
		t.Fatalf("after g[y2]: got %v want true", got)
	}
}

// TestParamGuardFalse: a permanently violated instance makes the whole
// universal guard false.
func TestParamGuardFalse(t *testing.T) {
	guard := NewParamGuard(temporal.Lit(temporal.NotYet(sym("f[?y]"))))
	var h History
	if guard.Eval(&h) != temporal.True {
		t.Fatal("vacuously true initially")
	}
	h.Observe(sym("f[c]"), 1)
	if guard.Eval(&h) != temporal.False {
		t.Fatal("¬f[y] universally must fail once any f[c] occurred")
	}
}

// TestParamGuardMixedVars: two variables enumerate their candidate
// cross product.
func TestParamGuardMixedVars(t *testing.T) {
	// ¬a[x] + □b[y]: for every x,y: a[x] not occurred or b[y] occurred.
	guard := NewParamGuard(temporal.Or(
		temporal.Lit(temporal.NotYet(sym("a[?x]"))),
		temporal.Lit(temporal.Occurred(sym("b[?y]"))),
	))
	if got := guard.vars; len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("vars: %v", got)
	}
	var h History
	h.Observe(sym("a[1]"), 1)
	// Instance (x=1, y fresh): ¬a[1] false, □b[fresh] false → false...
	// unless some b occurred.  Nothing did: the guard is false? No —
	// □b[y] with y fresh evaluates false, and ¬a[1] is false, so the
	// instance is false: the universal guard is False.
	if got := guard.Eval(&h); got != temporal.False {
		t.Fatalf("after a[1] with no b: got %v want false", got)
	}
	h2 := History{}
	h2.Observe(sym("b[7]"), 1)
	h2.Observe(sym("a[1]"), 2)
	// Instance (x=1, y=7): □b[7] true → instance true.  Instance
	// (x=1, y fresh): false.  Universal: false.  (The fresh-y instance
	// keeps the guard strict; this matches ∀y semantics.)
	if got := guard.Eval(&h2); got != temporal.False {
		t.Fatalf("universal over fresh y: got %v want false", got)
	}
}

// TestSubstFormula substitutes through all literal kinds.
func TestSubstFormula(t *testing.T) {
	f := temporal.Or(
		temporal.And(
			temporal.Lit(temporal.Occurred(sym("a[?x]"))),
			temporal.Lit(temporal.NotYet(sym("b[?x]"))),
		),
		temporal.Lit(temporal.Eventually(sym("a[?x]"), sym("c[?y]"))),
	)
	got := SubstFormula(f, Binding{"x": "k"})
	want := temporal.Or(
		temporal.And(
			temporal.Lit(temporal.Occurred(sym("a[k]"))),
			temporal.Lit(temporal.NotYet(sym("b[k]"))),
		),
		temporal.Lit(temporal.Eventually(sym("a[k]"), sym("c[?y]"))),
	)
	if !got.Equal(want) {
		t.Fatalf("subst formula: got %q want %q", got.Key(), want.Key())
	}
	if !SubstFormula(temporal.TrueF(), Binding{"x": "k"}).IsTrue() {
		t.Fatal("⊤ substitutes to ⊤")
	}
}
