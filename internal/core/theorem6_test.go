package core

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
)

// TestTheorem6Exhaustive: for a suite of workflows, the maximal traces
// generated under Definition 4 are exactly the traces satisfying every
// dependency (Theorem 6), and the compiled (mention-filtered) guards
// agree with the full quantification.
func TestTheorem6Exhaustive(t *testing.T) {
	workflows := [][]string{
		{"~e + f"},
		{"~e + ~f + e . f"},
		{"~e + f", "~f + e"},
		{"~e + f", "~e + ~f + e . f"},
		{"e . f"},
		{"~a + b", "~b + ~c + b . c"},
		{"e + f", "~e + ~f"},
	}
	for _, srcs := range workflows {
		w, err := ParseWorkflow(srcs...)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(w)
		if err != nil {
			t.Fatal(err)
		}
		sy := NewSynthesizer()
		for _, u := range algebra.MaximalUniverse(w.Alphabet()) {
			sat := SatisfiesAll(w, u)
			genFull := Generates(w, u, sy)
			genCompiled := GeneratesCompiled(c, u)
			if genFull != sat {
				t.Errorf("workflow %v: Theorem 6 fails on %v: generated=%v satisfies=%v",
					srcs, u, genFull, sat)
			}
			if genCompiled != sat {
				t.Errorf("workflow %v: compiled guards disagree on %v: generated=%v satisfies=%v",
					srcs, u, genCompiled, sat)
			}
		}
	}
}

// TestTheorem6Random: the same property on random two-dependency
// workflows over a three-event alphabet.
func TestTheorem6Random(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	names := []string{"e", "f", "g"}
	for iter := 0; iter < 30; iter++ {
		d1 := randomExpr(r, names, 2)
		d2 := randomExpr(r, names, 2)
		if d1.IsZero() || d2.IsZero() {
			continue
		}
		w := NewWorkflow(d1, d2)
		sy := NewSynthesizer()
		for _, u := range algebra.MaximalUniverse(w.Alphabet()) {
			sat := SatisfiesAll(w, u)
			gen := Generates(w, u, sy)
			if gen != sat {
				t.Fatalf("iter %d: workflow {%q, %q}: trace %v generated=%v satisfies=%v",
					iter, d1.Key(), d2.Key(), u, gen, sat)
			}
		}
	}
}

// TestCompileTravel compiles the travel workflow of Example 4 and
// sanity-checks the key guards.
func TestCompileTravel(t *testing.T) {
	w, err := ParseWorkflow(
		"~s_buy + s_book",
		"~c_buy + c_book . c_buy",
		"~c_book + c_buy + s_cancel",
	)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	// Dependency (2) orders c_book before c_buy, so c_buy's guard must
	// forbid occurring while c_book is still pending-and-possible.
	gBuy := c.GuardOf(sym("c_buy"))
	if gBuy.IsTrue() || gBuy.IsFalse() {
		t.Errorf("G(c_buy) must be a real constraint, got %q", gBuy.Key())
	}
	// Every maximal generated trace satisfies all three dependencies.
	for _, u := range GeneratedTraces(c) {
		if !SatisfiesAll(w, u) {
			t.Errorf("generated trace %v violates the workflow", u)
		}
	}
	if len(GeneratedTraces(c)) == 0 {
		t.Error("travel workflow must generate at least one trace")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(NewWorkflow()); err == nil {
		t.Error("empty workflow must not compile")
	}
	if _, err := Compile(NewWorkflow(algebra.Zero())); err == nil {
		t.Error("unsatisfiable dependency must not compile")
	}
	if _, err := ParseWorkflow("~e +"); err == nil {
		t.Error("syntax errors must propagate")
	}
}

func TestCompiledAccessors(t *testing.T) {
	w, _ := ParseWorkflow("~e + f")
	c, err := Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.EventGuards()); got != 4 {
		t.Fatalf("events: got %d want 4", got)
	}
	if c.GuardOf(sym("zzz")).IsTrue() != true {
		t.Error("unknown events must be unconstrained")
	}
	if c.TotalGuardSize() == 0 {
		t.Error("guard size must be positive for a real workflow")
	}
	eg := c.Guards[sym("e").Key()]
	if eg == nil {
		t.Fatal("guard entry for e missing")
	}
	if len(eg.Watches) == 0 {
		t.Error("e's guard must watch f (◇f)")
	}
	if w.Name(0) != "D1" {
		t.Errorf("default name: got %q", w.Name(0))
	}
	w.Names = []string{"arrow"}
	if w.Name(0) != "arrow" {
		t.Errorf("custom name: got %q", w.Name(0))
	}
}
