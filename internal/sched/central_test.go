package sched

import (
	"os"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/spec"
)

func residualsOf(t *testing.T, srcs ...string) []*algebra.Expr {
	t.Helper()
	out := make([]*algebra.Expr, len(srcs))
	for i, src := range srcs {
		out[i] = algebra.CNF(algebra.MustParse(src))
	}
	return out
}

func basesOf(t *testing.T, srcs ...string) []algebra.Symbol {
	t.Helper()
	w, err := core.ParseWorkflow(srcs...)
	if err != nil {
		t.Fatal(err)
	}
	return sortedBases(w)
}

func TestJointSatisfiable(t *testing.T) {
	cases := []struct {
		name      string
		residuals []string
		events    []string
		want      bool
	}{
		{"trivial", []string{"T"}, nil, true},
		{"dead residual", []string{"0", "T"}, nil, false},
		{"needs one event", []string{"e"}, []string{"e"}, true},
		{"conflict c and ~c", []string{"c", "~c"}, []string{"c"}, true},
		// c ∧ ~c: the single event c can satisfy only one of them.
		// (c as residual needs c to occur; ~c needs ~c.)  Unsat.
		{"order both ways", []string{"e . f", "f . e"}, []string{"e", "f"}, false},
		{"chain ok", []string{"~a + ~b + a . b", "~b + ~c + b . c"}, []string{"a", "b", "c"}, true},
	}
	for _, c := range cases {
		residuals := residualsOf(t, c.residuals...)
		srcs := append([]string(nil), c.residuals...)
		if len(c.events) > 0 {
			srcs = c.events
		}
		var remaining []algebra.Symbol
		for _, e := range c.events {
			remaining = append(remaining, sym(e))
		}
		budget := satBudget
		got := jointSatisfiable(residuals, remaining, map[string]bool{}, &budget)
		want := c.want
		if c.name == "conflict c and ~c" {
			want = false
		}
		if got != want {
			t.Errorf("%s: got %v want %v", c.name, got, want)
		}
		_ = srcs
	}
}

// TestCentralRejectsJointlyDoomedEvent reproduces the stress-found
// scenario: with a<b, b→c, c<a, accepting b after a would strand the
// conjunction at c ∧ c̄.  The joint check must park b, and the run as a
// whole must still complete legally (closeout resolves it).
func TestCentralRejectsJointlyDoomedEvent(t *testing.T) {
	w, err := core.ParseWorkflow(
		"~a + ~b + a . b",
		"~b + c",
		"~c + ~a + c . a",
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{CentralResiduation, CentralAutomata} {
		r, err := Run(Config{
			Workflow: w,
			Kind:     kind,
			Agents: []*spec.AgentScript{
				{ID: "x", Site: "s0", Steps: []spec.Step{
					spec.Step{Sym: sym("a"), Think: 10}, spec.Step{Sym: sym("b"), Think: 10},
				}},
			},
			Seed:     3,
			Closeout: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Satisfied || len(r.Unresolved) != 0 {
			t.Fatalf("%s: satisfied=%v unresolved=%v trace=%v",
				kind, r.Satisfied, r.Unresolved, r.Trace)
		}
		// b must not have been accepted after a (it would doom the
		// conjunction); the legal outcomes resolve b negatively.
		ia, ib := r.Trace.Index(sym("a")), r.Trace.Index(sym("b"))
		if ia >= 0 && ib > ia {
			t.Fatalf("%s: b accepted after a dooms the run: %v", kind, r.Trace)
		}
	}
}

// TestAutomatonStateCount: the automata baseline's precompiled size.
func TestAutomatonStateCount(t *testing.T) {
	w, _ := core.ParseWorkflow("~e + ~f + e . f", "~e + f")
	as := newAutomatonStepper(w)
	if got := as.StateCount(); got != 5+5 {
		t.Fatalf("state count: got %d want 10 (5 for D_<, 5 for D_→)", got)
	}
}

// TestSteppersAgree: peek/advance of the two steppers produce the same
// residuals on random event sequences.
func TestSteppersAgree(t *testing.T) {
	w, _ := core.ParseWorkflow("~a + ~b + a . b", "~b + c", "~c + a")
	rs := newResiduationStepper(w)
	as := newAutomatonStepper(w)
	seq := []string{"a", "~c", "b"}
	for _, k := range seq {
		s := sym(k)
		rPeek, aPeek := rs.peek(s), as.peek(s)
		for i := range rPeek {
			if rPeek[i].Key() != aPeek[i].Key() {
				t.Fatalf("peek(%s)[%d]: residuation %q vs automata %q",
					k, i, rPeek[i].Key(), aPeek[i].Key())
			}
		}
		rs.advance(s)
		as.advance(s)
	}
	_ = basesOf
}

// TestCentralGuardsObligations: the Günthör-style baseline accepts ◇
// requirements eagerly as binding obligations and then rejects the
// obligated events' complements.
func TestCentralGuardsObligations(t *testing.T) {
	// e's guard under D_→ is ◇f: accepting e obligates f.
	w, _ := core.ParseWorkflow("~e + f")
	r, err := Run(Config{
		Workflow: w,
		Kind:     CentralGuards,
		Agents: []*spec.AgentScript{
			{ID: "a", Site: "s0", Steps: []spec.Step{
				spec.Step{Sym: sym("e"), Think: 5},
				{Sym: sym("~f"), Think: 5, OnReject: []spec.Step{spec.Step{Sym: sym("f"), Think: 5}}},
			}},
		},
		Seed:     1,
		Closeout: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Trace.Contains(sym("e")) || !r.Trace.Contains(sym("f")) {
		t.Fatalf("e and its obligation f must occur: %v", r.Trace)
	}
	if !r.Satisfied || len(r.Unresolved) != 0 {
		t.Fatalf("satisfied=%v unresolved=%v", r.Satisfied, r.Unresolved)
	}
	// The complement ~f must have been rejected (f was promised).
	rejected := false
	for _, d := range r.Decisions {
		if d.Sym.Equal(sym("~f")) && !d.Accepted {
			rejected = true
		}
	}
	if !rejected {
		t.Fatalf("~f must be rejected once f is obligated: %+v", r.Decisions)
	}
}

// TestCentralGuardsOrdering: sequence guards hold centrally (c_book
// before c_buy in the travel workflow) — exercised via the suite, but
// asserted directly here.
func TestCentralGuardsOrdering(t *testing.T) {
	r := runTravel(t, CentralGuards, happyAgents())
	if !r.Satisfied || len(r.Unresolved) != 0 {
		t.Fatalf("satisfied=%v unresolved=%v trace=%v", r.Satisfied, r.Unresolved, r.Trace)
	}
	ib, ibuy := r.Trace.Index(sym("c_book")), r.Trace.Index(sym("c_buy"))
	if ib < 0 || ibuy < 0 || ib > ibuy {
		t.Fatalf("ordering violated: %v", r.Trace)
	}
}

// TestMutexEverySchedulerSatisfied: testdata/mutex.wf (Example 13's
// two-iteration mutual exclusion) realizes a satisfying maximal trace
// on every scheduler and seed.  Central-guards used to promise b1's
// obligation ~e1 and then accept e1 anyway, realizing b1 b2 e1 e2,
// which violates m12.
func TestMutexEverySchedulerSatisfied(t *testing.T) {
	f, err := os.Open("../../testdata/mutex.wf")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sp, err := spec.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range Kinds() {
		for seed := int64(1); seed <= 10; seed++ {
			r, err := Run(SpecConfig(sp, kind, seed))
			if err != nil {
				t.Fatal(err)
			}
			if !r.Satisfied || len(r.Unresolved) != 0 {
				t.Errorf("%s seed %d: satisfied=%v unresolved=%v trace=%v",
					kind, seed, r.Satisfied, r.Unresolved, r.Trace)
			}
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
