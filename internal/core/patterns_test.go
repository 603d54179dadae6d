package core_test

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/temporal"
)

func psym(k string) algebra.Symbol {
	s, err := algebra.ParseSymbol(k)
	if err != nil {
		panic(err)
	}
	return s
}

// TestPatternGuardTables pins the synthesized guards of every
// dependency pattern of the dep library: the calculus's behaviour on
// the idioms real workflows use.  Every row is G(pattern, event) in
// canonical text form, and every expectation is additionally verified
// semantically against Definition 4 over the maximal universe.
func TestPatternGuardTables(t *testing.T) {
	e, f, g := psym("e"), psym("f"), psym("g")
	cases := []struct {
		name  string
		d     *algebra.Expr
		table map[string]string
	}{
		{
			// e < f: e must beat f (¬f, agreed); f needs e occurred or
			// ē guaranteed.
			name: "Before(e,f)",
			d:    dep.Before(e, f),
			table: map[string]string{
				"e": "!f", "f": "<>(~e) + []e", "~e": "T", "~f": "T",
			},
		},
		{
			// e → f: e needs f guaranteed; refusing f forever needs ē.
			name: "Implies(e,f)",
			d:    dep.Implies(e, f),
			table: map[string]string{
				"e": "<>(f)", "f": "T", "~e": "T", "~f": "<>(~e)",
			},
		},
		{
			// f enables e: e strictly after a real f (a promise is not
			// enough: □f), and f must beat e.
			name: "Enables(f,e)",
			d:    dep.Enables(f, e),
			table: map[string]string{
				"e": "[]f", "f": "!e", "~e": "T", "~f": "<>(~e)",
			},
		},
		{
			// committed ⇒ success or compensation, eventually.
			name: "Compensate(e,f,g)",
			d:    dep.Compensate(e, f, g),
			table: map[string]string{
				"e": "<>(f) + <>(g)", "f": "T", "g": "T",
				"~e": "T", "~f": "<>(g) + <>(~e)", "~g": "<>(f) + <>(~e)",
			},
		},
		{
			// e only if f never occurs — symmetric mutual exclusion of
			// occurrences, each side needing the other's complement
			// guaranteed.
			name: "OnlyIfNever(e,f)",
			d:    dep.OnlyIfNever(e, f),
			table: map[string]string{
				"e": "<>(~f)", "f": "<>(~e)", "~e": "T", "~f": "T",
			},
		},
	}
	for _, c := range cases {
		uni := algebra.MaximalUniverse(c.d.Gamma())
		for evKey, want := range c.table {
			ev := psym(evKey)
			got := core.Guard(c.d, ev)
			if got.Key() != want {
				t.Errorf("%s: G(%s) = %q, want %q", c.name, evKey, got.Key(), want)
				continue
			}
			// Semantic check: the guard admits exactly the positions
			// Definition 4 requires — at every index of every maximal
			// trace where ev occurs next, the guard's truth must match
			// the trace's satisfaction of the dependency.
			wantF, err := temporal.ParseFormula(want)
			if err != nil || !wantF.Equal(got) {
				t.Errorf("%s: expectation %q does not re-parse to the guard", c.name, want)
			}
			for _, u := range uni {
				for j := 0; j < len(u); j++ {
					if !u[j].Equal(ev) {
						continue
					}
					if got.EvalAt(u, j) != u.Satisfies(c.d) {
						t.Errorf("%s: guard of %s disagrees with satisfaction on %v at %d",
							c.name, evKey, u, j)
					}
				}
			}
		}
	}
}

// TestPatternGuardsEnforceEndToEnd compiles each pattern alone and
// checks Theorem 6 set equality for it.
func TestPatternGuardsEnforceEndToEnd(t *testing.T) {
	e, f, g := psym("e"), psym("f"), psym("g")
	pats := []*algebra.Expr{
		dep.Before(e, f), dep.Implies(e, f), dep.Enables(f, e),
		dep.Compensate(e, f, g), dep.OnlyIfNever(e, f),
	}
	for _, d := range pats {
		w := core.NewWorkflow(d)
		c, err := core.Compile(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range algebra.MaximalUniverse(w.Alphabet()) {
			if core.GeneratesCompiled(c, u) != u.Satisfies(d) {
				t.Errorf("%q: generation mismatch on %v", d.Key(), u)
			}
		}
	}
}
