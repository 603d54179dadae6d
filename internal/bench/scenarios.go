package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/param"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/temporal"
)

// E10 replays Example 10 on the distributed scheduler: under D_<, f
// attempted first parks; ē occurs; f is then enabled.
func E10() *Table {
	w, err := core.ParseWorkflow("~e + ~f + e . f")
	if err != nil {
		panic(err)
	}
	r, err := sched.Run(sched.Config{
		Workflow:  w,
		Kind:      sched.Distributed,
		Placement: spec.Placement{"e": "se", "f": "sf"},
		Agents: []*spec.AgentScript{
			{ID: "f-agent", Site: "sf", Steps: []spec.Step{{Sym: sym("f"), Think: 10}}},
			{ID: "e-agent", Site: "se", Steps: []spec.Step{{Sym: sym("~e"), Think: 4000}}},
		},
		Seed: 10,
	})
	if err != nil {
		panic(err)
	}
	t := &Table{
		ID:     "E10",
		Title:  "execution by guard evaluation (D_<; f first, then ē)",
		Header: []string{"#", "event", "outcome"},
	}
	for i, d := range r.Decisions {
		verdict := "accepted"
		if !d.Accepted {
			verdict = "rejected"
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(i + 1), r.Symbols.Key(d.ID),
			fmt.Sprintf("%s (attempted %dµs, decided %dµs)", verdict, d.AttemptedAt, d.DecidedAt)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("realized trace %v — f parked until ~e's announcement reduced its guard to T", r.Trace))
	return t
}

// E11 replays the promise consensus: D_→ and its transpose give e the
// guard ◇f and f the guard ◇e; both occur via conditional promises.
func E11() *Table {
	w, err := core.ParseWorkflow("~e + f", "~f + e")
	if err != nil {
		panic(err)
	}
	r, err := sched.Run(sched.Config{
		Workflow:  w,
		Kind:      sched.Distributed,
		Placement: spec.Placement{"e": "se", "f": "sf"},
		Agents: []*spec.AgentScript{
			{ID: "ae", Site: "se", Steps: []spec.Step{{Sym: sym("e"), Think: 10}}},
			{ID: "af", Site: "sf", Steps: []spec.Step{{Sym: sym("f"), Think: 12}}},
		},
		Seed:     11,
		Closeout: true,
	})
	if err != nil {
		panic(err)
	}
	t := &Table{
		ID:     "E11",
		Title:  "mutual ◇ guards resolved by conditional promises",
		Header: []string{"guard", "value"},
	}
	t.Rows = append(t.Rows,
		[]string{"G(e)", core.Guard(w.Deps[0], sym("e")).Key()},
		[]string{"G(f)", core.Guard(w.Deps[1], sym("f")).Key()},
		[]string{"realized trace", r.Trace.String()},
		[]string{"satisfied", fmt.Sprint(r.Satisfied)},
	)
	return t
}

// E12 runs the travel workflow (Example 4/12) on every scheduler, for
// the committed and the compensated execution.
func E12() *Table {
	t := &Table{
		ID:     "E12",
		Title:  "travel workflow: committed and compensated executions",
		Header: []string{"scenario", "scheduler", "trace", "satisfied"},
	}
	deps := []string{
		"~s_buy + s_book",
		"~c_buy + c_book . c_buy",
		"~c_book + c_buy + s_cancel",
	}
	scenarios := []struct {
		name   string
		second spec.Step
	}{
		{"commit", spec.Step{Sym: sym("c_buy"), Think: 40}},
		{"compensate", spec.Step{Sym: sym("~c_buy"), Think: 40}},
	}
	for _, sc := range scenarios {
		for _, kind := range sched.Kinds() {
			w, err := core.ParseWorkflow(deps...)
			if err != nil {
				panic(err)
			}
			r, err := sched.Run(sched.Config{
				Workflow: w,
				Kind:     kind,
				Placement: spec.Placement{
					"s_buy": "buy", "c_buy": "buy",
					"s_book": "book", "c_book": "book",
					"s_cancel": "cancel",
				},
				Agents: []*spec.AgentScript{
					{ID: "buy", Site: "buy", Steps: []spec.Step{{Sym: sym("s_buy"), Think: 10}, sc.second}},
					{ID: "book", Site: "book", Steps: []spec.Step{{Sym: sym("s_book"), Think: 30}, {Sym: sym("c_book"), Think: 20}}},
				},
				Seed:        1996,
				Triggerable: []string{"s_book", "s_cancel"},
				Closeout:    true,
			})
			if err != nil {
				panic(err)
			}
			t.Rows = append(t.Rows, []string{sc.name, string(kind), r.Trace.String(), mark(r.Satisfied)})
		}
	}
	t.Notes = append(t.Notes, "in the compensated run the scheduler triggers s_cancel to discharge dependency (3)")
	return t
}

// E13 replays the parametrized mutual exclusion of Example 13 over two
// loop iterations.
func E13() *Table {
	m, err := param.NewManager(
		"b2[?y] . b1[?x] + ~e1[?x] + ~b2[?y] + e1[?x] . b2[?y]",
		"b1[?x] . b2[?y] + ~e2[?y] + ~b1[?x] + e2[?y] . b1[?x]",
	)
	if err != nil {
		panic(err)
	}
	var c param.Counter
	t := &Table{
		ID:     "E13",
		Title:  "mutual exclusion over looping tasks (tokens via per-agent counters)",
		Header: []string{"attempt", "outcome", "trace so far"},
	}
	try := func(base string) {
		tok := c.Next(sym(base))
		out, err := m.Attempt(tok)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{tok.Key(), out.String(), m.Trace().String()})
	}
	try("b1") // T1 enters
	try("b2") // T2 must wait
	try("e1") // T1 exits → T2 admitted
	try("b1") // next iteration: T1 must wait (T2 inside)
	try("e2") // T2 exits → T1 admitted
	try("e1") // T1 exits again
	if inst, ok := m.SatisfiesInstances(); !ok {
		t.Notes = append(t.Notes, fmt.Sprintf("VIOLATION of %v", inst))
	} else {
		t.Notes = append(t.Notes, "every ground instance of both dependencies is satisfied")
	}
	return t
}

// E13D runs Example 13's mutual exclusion fully distributed: one type
// actor per event type over the simulated network, with the freeze
// agreement deciding the universal ¬ literals.
func E13D() *Table {
	rep, err := param.RunTypes(param.TypesConfig{
		Deps: []string{
			"b2[?y] . b1[?x] + ~e1[?x] + ~b2[?y] + e1[?x] . b2[?y]",
			"b1[?x] . b2[?y] + ~e2[?y] + ~b1[?x] + e2[?y] . b1[?x]",
		},
		Placement: map[string]simnet.SiteID{
			"b1": "t1", "e1": "t1", "b2": "t2", "e2": "t2",
		},
		Script: []param.TimedToken{
			{Ground: "b1[i1]", At: 10},
			{Ground: "b2[j1]", At: 12},
			{Ground: "e1[i1]", At: 5000},
			{Ground: "e2[j1]", At: 10000},
			{Ground: "b1[i2]", At: 15000},
			{Ground: "e1[i2]", At: 20000},
		},
		Seed: 3,
	})
	if err != nil {
		panic(err)
	}
	t := &Table{
		ID:     "E13D",
		Title:  "Example 13 distributed: type actors over the network",
		Header: []string{"metric", "value"},
	}
	t.Rows = append(t.Rows,
		[]string{"realized token order", rep.Trace.String()},
		[]string{"messages (remote)", fmt.Sprintf("%d (%d)", rep.Stats.Messages, rep.Stats.Remote)},
		[]string{"parked at end", fmt.Sprint(len(rep.Parked))},
	)
	t.Notes = append(t.Notes,
		"b2[j1] races b1[i1] from another site; the freeze agreement serializes the critical sections")
	return t
}

// T1 re-runs the Theorem 1 soundness check over fresh random cases.
func T1() *Table {
	names := []string{"e", "f"}
	a := algebra.NewAlphabet()
	for _, n := range names {
		a.AddPair(algebra.Sym(n))
	}
	universe := algebra.Universe(a)
	r := rand.New(rand.NewSource(101))
	checked, mismatches := 0, 0
	for i := 0; i < 150; i++ {
		expr := randomExpr(r, names, 3)
		by := algebra.Sym(names[r.Intn(len(names))])
		if r.Intn(2) == 0 {
			by = by.Complement()
		}
		symbolic := algebra.Residuate(expr, by)
		semantic := map[string]bool{}
		for _, v := range algebra.ResiduateSemantic(expr, by, a) {
			semantic[v.String()] = true
		}
		for _, v := range universe {
			if v.Contains(by) || v.Contains(by.Complement()) {
				continue
			}
			checked++
			if v.Satisfies(symbolic) != semantic[v.String()] {
				mismatches++
			}
		}
	}
	return &Table{
		ID:     "T1",
		Title:  "soundness of Residuation 1–8 vs Semantics 6",
		Header: []string{"random expressions", "trace judgments checked", "mismatches"},
		Rows:   [][]string{{"150", fmt.Sprint(checked), fmt.Sprint(mismatches)}},
	}
}

// T2T4 re-runs the independence checks of Theorems 2 and 4.
func T2T4() *Table {
	pairs := [][2]string{
		{"~e + f", "g"},
		{"e . f", "g + ~h"},
		{"~e + ~f + e . f", "~g + h"},
	}
	t := &Table{
		ID:     "T2T4",
		Title:  "guard independence for alphabet-disjoint dependencies",
		Header: []string{"D", "E", "theorem", "events checked", "all equal"},
	}
	for _, p := range pairs {
		d1, d2 := algebra.MustParse(p[0]), algebra.MustParse(p[1])
		for _, conj := range []bool{false, true} {
			var combined *algebra.Expr
			name := "2 (D+E)"
			if conj {
				combined = algebra.Conj(d1, d2)
				name = "4 (D|E)"
			} else {
				combined = algebra.Choice(d1, d2)
			}
			uni := algebra.MaximalUniverse(combined.Gamma())
			events := combined.Gamma().Symbols()
			ok := true
			for _, ev := range events {
				lhs := core.NewPlainSynthesizer().Guard(combined, ev)
				g1 := core.NewPlainSynthesizer().Guard(d1, ev)
				g2 := core.NewPlainSynthesizer().Guard(d2, ev)
				var rhs temporal.Formula
				if conj {
					rhs = temporal.And(g1, g2)
				} else {
					rhs = temporal.Or(g1, g2)
				}
				if !temporal.EquivalentOver(lhs.Node(), rhs.Node(), uni) {
					ok = false
				}
			}
			t.Rows = append(t.Rows, []string{p[0], p[1], name, fmt.Sprint(len(events)), mark(ok)})
		}
	}
	return t
}

// L5 cross-validates Definition 2 against the Π(D) characterization.
func L5() *Table {
	exprs := []string{"~e + f", "~e + ~f + e . f", "e . f", "e + f", "e | f"}
	t := &Table{
		ID:     "L5",
		Title:  "G via Definition 2 vs G via Π(D) paths (Lemma 5)",
		Header: []string{"dependency", "|Π(D)|", "events", "all equivalent"},
	}
	for _, src := range exprs {
		d := algebra.MustParse(src)
		paths := core.Paths(d)
		uni := algebra.MaximalUniverse(d.Gamma())
		ok := true
		for _, ev := range d.Gamma().Symbols() {
			a := core.NewPlainSynthesizer().Guard(d, ev)
			b := core.GuardViaPaths(d, ev)
			if !temporal.EquivalentOver(a.Node(), b.Node(), uni) {
				ok = false
			}
		}
		t.Rows = append(t.Rows, []string{src, fmt.Sprint(len(paths)),
			fmt.Sprint(len(d.Gamma())), mark(ok)})
	}
	return t
}

// T6 compares generated and satisfying maximal traces for a workflow
// suite.
func T6() *Table {
	workflows := [][]string{
		{"~e + f"},
		{"~e + ~f + e . f"},
		{"~e + f", "~f + e"},
		{"~e + f", "~e + ~f + e . f"},
		{"e . f"},
		{"~a + b", "~b + ~c + b . c"},
	}
	t := &Table{
		ID:     "T6",
		Title:  "workflow generates u  iff  u satisfies every dependency",
		Header: []string{"workflow", "maximal traces", "satisfying", "generated", "equal sets"},
	}
	for _, srcs := range workflows {
		w, err := core.ParseWorkflow(srcs...)
		if err != nil {
			panic(err)
		}
		c, err := core.Compile(w)
		if err != nil {
			panic(err)
		}
		mu := algebra.MaximalUniverse(w.Alphabet())
		var sat, gen int
		equal := true
		for _, u := range mu {
			s := core.SatisfiesAll(w, u)
			g := core.GeneratesCompiled(c, u)
			if s {
				sat++
			}
			if g {
				gen++
			}
			if s != g {
				equal = false
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(srcs), fmt.Sprint(len(mu)), fmt.Sprint(sat), fmt.Sprint(gen), mark(equal)})
	}
	return t
}

func randomExpr(r *rand.Rand, names []string, depth int) *algebra.Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		s := algebra.Sym(names[r.Intn(len(names))])
		if r.Intn(2) == 0 {
			s = s.Complement()
		}
		return algebra.At(s)
	}
	subs := []*algebra.Expr{
		randomExpr(r, names, depth-1),
		randomExpr(r, names, depth-1),
	}
	switch r.Intn(3) {
	case 0:
		return algebra.Seq(subs...)
	case 1:
		return algebra.Choice(subs...)
	default:
		return algebra.Conj(subs...)
	}
}
