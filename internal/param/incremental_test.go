package param

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/temporal"
)

// TestEvaluatorMatchesScratch drives a standalone incremental
// Evaluator and the from-scratch ParamGuard.Eval over the same
// randomized templates and observation sequences, checking the
// verdicts agree at every history prefix.  The pattern pool includes
// multi-variable symbols, exercising the per-instance discovery
// fallback alongside the partial fast path and the delta rechecks.
func TestEvaluatorMatchesScratch(t *testing.T) {
	patPool := []string{"b[?x]", "~b[?x]", "e[?x]", "~e[?x]", "f[?y]", "~f[?y]", "c[?x,?y]", "~c[?x,?y]"}
	vals := []string{"1", "2", "3"}
	bases := []struct {
		name  string
		arity int
	}{{"b", 1}, {"e", 1}, {"f", 1}, {"c", 2}}
	r := rand.New(rand.NewSource(41))
	for iter := 0; iter < 80; iter++ {
		nProds := 1 + r.Intn(3)
		prods := make([]temporal.Formula, 0, nProds)
		for p := 0; p < nProds; p++ {
			n := 1 + r.Intn(3)
			lits := make([]temporal.Formula, 0, n)
			for i := 0; i < n; i++ {
				s := sym(patPool[r.Intn(len(patPool))])
				switch r.Intn(3) {
				case 0:
					lits = append(lits, temporal.Lit(temporal.Occurred(s)))
				case 1:
					lits = append(lits, temporal.Lit(temporal.NotYet(s)))
				default:
					lits = append(lits, temporal.Lit(temporal.Eventually(s, sym(patPool[r.Intn(len(patPool))]))))
				}
			}
			prods = append(prods, temporal.And(lits...))
		}
		tmpl := temporal.Or(prods...)
		pg := NewParamGuard(tmpl)
		h := &History{}
		ev := newEvaluatorWith(pg, h, nil)
		if got, want := ev.Eval(), pg.Eval(h); got != want {
			t.Fatalf("iter %d: empty history: incremental %v scratch %v (template %s)", iter, got, want, tmpl.Key())
		}
		used := map[string]bool{}
		var seq []string
		var tick int64
		for step := 0; step < 25; step++ {
			b := bases[r.Intn(len(bases))]
			terms := make([]algebra.Term, b.arity)
			for i := range terms {
				terms[i] = algebra.Const(vals[r.Intn(len(vals))])
			}
			g := algebra.SymP(b.name, terms...)
			if r.Intn(2) == 0 {
				g = g.Complement()
			}
			// Keep the history consistent: Observe-only histories never
			// hold both a symbol and its complement.
			if used[g.Key()] || used[g.Complement().Key()] {
				continue
			}
			used[g.Key()] = true
			seq = append(seq, g.Key())
			tick++
			h.Observe(g, tick)
			got, want := ev.Eval(), pg.Eval(h)
			if got != want {
				t.Fatalf("iter %d: template %s after %v: incremental %v scratch %v",
					iter, tmpl.Key(), seq, got, want)
			}
			if again := ev.Eval(); again != got {
				t.Fatalf("iter %d: Eval not idempotent: %v then %v", iter, got, again)
			}
		}
	}
}

// TestManagerIncrementalMatchesScratch drives two managers over the
// Example 13 dependencies — one on the delta-driven evaluators, one on
// the from-scratch ablation — through identical randomized token
// streams (with occasional forced complements to exercise rejection)
// and requires identical outcomes, traces, and parked sets.
func TestManagerIncrementalMatchesScratch(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	bases := []string{"b1", "e1", "b2", "e2"}
	for iter := 0; iter < 30; iter++ {
		inc := example13Manager(t, false)
		scr := example13Manager(t, true)
		for step := 0; step < 40; step++ {
			tok := algebra.SymP(bases[r.Intn(len(bases))], algebra.Const(fmt.Sprintf("%d", 1+r.Intn(5))))
			if r.Intn(10) == 0 {
				c := tok.Complement()
				errI, errS := inc.Force(c), scr.Force(c)
				if (errI == nil) != (errS == nil) {
					t.Fatalf("iter %d step %d: force %s diverged: %v vs %v", iter, step, c, errI, errS)
				}
				continue
			}
			oi, errI := inc.Attempt(tok)
			os, errS := scr.Attempt(tok)
			if errI != nil || errS != nil {
				t.Fatalf("iter %d step %d: attempt errors: %v %v", iter, step, errI, errS)
			}
			if oi != os {
				t.Fatalf("iter %d step %d: token %s: incremental %v scratch %v (traces %v vs %v)",
					iter, step, tok, oi, os, inc.Trace(), scr.Trace())
			}
		}
		ti, ts := inc.Trace(), scr.Trace()
		if len(ti) != len(ts) {
			t.Fatalf("iter %d: trace lengths diverged: %v vs %v", iter, ti, ts)
		}
		for i := range ti {
			if !ti[i].Equal(ts[i]) {
				t.Fatalf("iter %d: traces diverged at %d: %v vs %v", iter, i, ti, ts)
			}
		}
		pi, ps := inc.ParkedTokens(), scr.ParkedTokens()
		if len(pi) != len(ps) {
			t.Fatalf("iter %d: parked sets diverged: %v vs %v", iter, pi, ps)
		}
		for i := range pi {
			if !pi[i].Equal(ps[i]) {
				t.Fatalf("iter %d: parked sets diverged at %d: %v vs %v", iter, i, pi, ps)
			}
		}
		// No SatisfiesInstances assertion: forced complements bypass
		// guards by design, so the realized trace need not satisfy the
		// dependencies — equivalence of the two modes is the property.
	}
}
