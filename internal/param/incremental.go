package param

import (
	"repro/internal/algebra"
	"repro/internal/temporal"
)

// This file implements the delta-driven parametrized evaluation fast
// path.  ParamGuard.Eval re-enumerates every candidate binding and
// re-evaluates every instance on each call; the structures here make
// the same verdicts incremental, in three layers:
//
//  1. a per-instance "partial" verdict: the instance template
//     evaluated with every remaining quantified variable treated as
//     unknown.  A product that is true through fully-ground literals
//     alone is true in every grounding, so a partial ⊤ (or 0) decides
//     the whole universal conjunction without enumerating a single
//     binding — and permanently, because ground verdicts under
//     Observe-only histories are never retracted;
//
//  2. a per-template candidate index shared by every token of an
//     event type (templateState): observations are unified against
//     the template's patterns once per observation instead of once
//     per attempt, and a candidate value whose one-variable partial
//     instance is discharged (⊤ for every grounding of the other
//     variables, by the same ground-products argument) is removed
//     from the index wholesale — Example 14's shrinking.  New tokens
//     then quantify only over the values still in play, so
//     steady-state cost tracks the live population, not the history;
//
//  3. per-binding instance verdict caching with dependency-indexed
//     rechecks (Evaluator): an undecided instance is re-evaluated
//     only when a new observation (or its complement) is one of the
//     instance's own ground symbols — the only way its verdict can
//     move.  Discharged instances are never revisited.
//
// Layer 2 is exact only when every template symbol mentions at most
// one distinct variable — then a token's instance-level candidate
// sets coincide with the template-level ones (substituting the
// token's variables leaves single-variable patterns either fully
// ground or untouched).  Templates with multi-variable symbols fall
// back to per-token candidate discovery (layers 1 and 3 still apply).
// Layers 1 and 3 are exact unconditionally.
//
// Everything here is single-threaded, owned by the Manager, and
// assumes the History grows only via Observe.

// evalFormulaPartial evaluates a formula treating every literal that
// still contains a variable as unknown.  True and False verdicts
// therefore hold for every grounding of the free variables — and
// permanently, since they rest on fully-ground literals only.
func evalFormulaPartial(h *History, f temporal.Formula) temporal.Tri {
	anyUnknown := false
	for _, p := range f.Products() {
		v := evalProductPartial(h, p)
		if v == temporal.True {
			return temporal.True
		}
		if v == temporal.Unknown {
			anyUnknown = true
		}
	}
	if f.IsTrue() {
		return temporal.True
	}
	if anyUnknown {
		return temporal.Unknown
	}
	return temporal.False
}

func evalProductPartial(h *History, p temporal.Product) temporal.Tri {
	anyUnknown := false
	for _, l := range p.Lits() {
		if !litGround(l) {
			anyUnknown = true
			continue
		}
		switch h.know.DecideLit(l) {
		case temporal.False:
			return temporal.False
		case temporal.Unknown:
			anyUnknown = true
		}
	}
	if anyUnknown {
		return temporal.Unknown
	}
	return temporal.True
}

// groundSymKeys returns the keys of the formula's ground symbols —
// the dependency set of its partial verdict and of any of its
// instances' verdicts.
func groundSymKeys(f temporal.Formula) map[string]bool {
	out := map[string]bool{}
	for _, s := range f.Symbols() {
		if s.Ground() {
			out[s.Key()] = true
		}
	}
	return out
}

type partialKey struct{ v, val string }

// templateState is the candidate index one guard template shares
// across every token of its event type.
type templateState struct {
	pg    *ParamGuard
	h     *History
	exact bool // every template symbol mentions ≤ 1 distinct variable
	seen  int  // prefix of h's observation log already assimilated

	patsByVar map[string][]algebra.Symbol
	// live and discharged partition the observed candidate values per
	// variable: discharged values have a partial instance proven ⊤ for
	// every grounding of the remaining variables and are skipped by
	// every present and future token.
	live       map[string]map[string]bool
	discharged map[string]map[string]bool
	// partial holds the still-undecided one-variable partial
	// instances, indexed by their ground symbols for delta rechecks.
	partial     map[partialKey]temporal.Formula
	partialDeps map[string]map[partialKey]bool
}

func newTemplateState(pg *ParamGuard, h *History) *templateState {
	ts := &templateState{
		pg:          pg,
		h:           h,
		exact:       true,
		patsByVar:   map[string][]algebra.Symbol{},
		live:        map[string]map[string]bool{},
		discharged:  map[string]map[string]bool{},
		partial:     map[partialKey]temporal.Formula{},
		partialDeps: map[string]map[partialKey]bool{},
	}
	for _, pat := range pg.Template.Symbols() {
		distinct := map[string]bool{}
		for _, t := range pat.Params {
			if t.IsVar {
				distinct[t.Value] = true
			}
		}
		if len(distinct) > 1 {
			ts.exact = false
		}
		for v := range distinct {
			ts.patsByVar[v] = append(ts.patsByVar[v], pat)
		}
	}
	for _, v := range pg.vars {
		ts.live[v] = map[string]bool{}
		ts.discharged[v] = map[string]bool{}
	}
	return ts
}

// sync assimilates the observations appended since the last call:
// rechecks the undecided partial instances the observation touches
// and folds new candidate values into the index.  No-op for inexact
// templates, whose tokens discover candidates themselves.
func (ts *templateState) sync() {
	if !ts.exact {
		return
	}
	for ts.seen < len(ts.h.grounds) {
		g := ts.h.grounds[ts.seen]
		ts.seen++
		ts.recheckPartials(g.Key())
		ts.recheckPartials(g.Complement().Key())
		for v, pats := range ts.patsByVar {
			for _, pat := range pats {
				for _, cand := range [2]algebra.Symbol{g, g.Complement()} {
					b, ok := Unify(pat, cand)
					if !ok {
						continue
					}
					val, bound := b[v]
					if !bound || ts.live[v][val] || ts.discharged[v][val] {
						continue
					}
					ts.addValue(v, val)
				}
			}
		}
	}
}

func (ts *templateState) addValue(v, val string) {
	p := SubstFormula(ts.pg.Template, Binding{v: val})
	switch evalFormulaPartial(ts.h, p) {
	case temporal.True:
		ts.discharged[v][val] = true
	case temporal.False:
		// Permanently 0 for every grounding: stay live so tokens
		// materialize (and fail on) the instance, exactly as the
		// from-scratch evaluation would.
		ts.live[v][val] = true
	default:
		ts.live[v][val] = true
		pk := partialKey{v: v, val: val}
		ts.partial[pk] = p
		for sym := range groundSymKeys(p) {
			deps := ts.partialDeps[sym]
			if deps == nil {
				deps = map[partialKey]bool{}
				ts.partialDeps[sym] = deps
			}
			deps[pk] = true
		}
	}
}

func (ts *templateState) recheckPartials(symKey string) {
	for pk := range ts.partialDeps[symKey] {
		p, undecided := ts.partial[pk]
		if !undecided {
			delete(ts.partialDeps[symKey], pk)
			continue
		}
		switch evalFormulaPartial(ts.h, p) {
		case temporal.True:
			ts.discharged[pk.v][pk.val] = true
			delete(ts.live[pk.v], pk.val)
			delete(ts.partial, pk)
		case temporal.False:
			delete(ts.partial, pk) // permanent; no more rechecks needed
		}
	}
}

// Evaluator incrementally evaluates one ParamGuard instance (a token's
// guard, universally quantified over its remaining variables) against
// a growing History.  See the file comment for the design; the
// verdicts agree with ParamGuard.Eval at every history prefix
// (property-tested).
type Evaluator struct {
	pg *ParamGuard
	h  *History
	ts *templateState // shared candidate index; may be nil (standalone)

	started    bool
	seen       int
	partialTri temporal.Tri    // cached partial verdict of the instance template
	instDeps   map[string]bool // ground symbols of the instance template

	myCands  map[string]map[string]bool
	bindings []Binding
	unknown  map[string]temporal.Formula // binding key → undecided instance
	depIndex map[string]map[string]bool  // ground symbol key → undecided binding keys
	failed   bool
}

func newEvaluatorWith(pg *ParamGuard, h *History, ts *templateState) *Evaluator {
	return &Evaluator{
		pg:       pg,
		h:        h,
		ts:       ts,
		myCands:  map[string]map[string]bool{},
		unknown:  map[string]temporal.Formula{},
		depIndex: map[string]map[string]bool{},
	}
}

// exactShared reports whether the shared template index can stand in
// for this instance's own candidate discovery.
func (ev *Evaluator) exactShared() bool { return ev.ts != nil && ev.ts.exact }

// Eval returns the universal verdict at the history's current state,
// assimilating only the observations since the previous call.
func (ev *Evaluator) Eval() temporal.Tri {
	mEvals.Inc()
	if ev.ts != nil {
		ev.ts.sync()
	}
	if ev.failed {
		return temporal.False
	}
	if ev.started && ev.partialTri == temporal.True {
		return temporal.True
	}
	if !ev.started {
		ev.start()
	} else {
		for ev.seen < len(ev.h.grounds) {
			g := ev.h.grounds[ev.seen]
			ev.seen++
			ev.recheckPartial(g)
			if ev.partialTri == temporal.True {
				ev.discharge()
				return temporal.True
			}
			ev.recheck(g.Key())
			ev.recheck(g.Complement().Key())
			if ev.failed {
				return temporal.False
			}
			if !ev.exactShared() {
				ev.discover(g)
			}
		}
		if ev.exactShared() {
			ev.diffLive()
		}
	}
	switch {
	case ev.failed:
		return temporal.False
	case ev.partialTri == temporal.True:
		return temporal.True
	case len(ev.unknown) > 0:
		return temporal.Unknown
	}
	return temporal.True
}

// start performs the first evaluation: the partial fast path, then —
// only if it is undecided — materializing the binding population from
// the shared index (or by replaying the observation log when the
// template is inexact).
func (ev *Evaluator) start() {
	ev.started = true
	ev.instDeps = groundSymKeys(ev.pg.Template)
	ev.partialTri = evalFormulaPartial(ev.h, ev.pg.Template)
	switch ev.partialTri {
	case temporal.True:
		ev.seen = len(ev.h.grounds)
		ev.discharge()
		return
	case temporal.False:
		ev.failed = true
		return
	}
	for _, v := range ev.pg.vars {
		ev.myCands[v] = map[string]bool{}
	}
	empty := Binding{}
	ev.bindings = append(ev.bindings, empty)
	ev.assess(empty)
	if ev.exactShared() {
		ev.seen = len(ev.h.grounds)
		ev.diffLive()
		return
	}
	// Inexact template: replay the log for candidate discovery only —
	// instances assessed here already reflect the full history, so no
	// rechecks are needed during the replay.
	for ; ev.seen < len(ev.h.grounds); ev.seen++ {
		ev.discover(ev.h.grounds[ev.seen])
	}
}

// discharge drops the binding population once the partial verdict is
// permanently true.
func (ev *Evaluator) discharge() {
	ev.myCands, ev.bindings, ev.unknown, ev.depIndex = nil, nil, nil, nil
}

// recheckPartial re-evaluates the cached partial verdict when the
// observation touches the instance template's ground symbols.
func (ev *Evaluator) recheckPartial(g algebra.Symbol) {
	if ev.partialTri != temporal.Unknown {
		return
	}
	if !ev.instDeps[g.Key()] && !ev.instDeps[g.Complement().Key()] {
		return
	}
	ev.partialTri = evalFormulaPartial(ev.h, ev.pg.Template)
	if ev.partialTri == temporal.False {
		ev.failed = true
	}
}

// diffLive materializes bindings for shared-index candidate values
// this evaluator has not seen yet.
func (ev *Evaluator) diffLive() {
	for _, v := range ev.pg.vars {
		for val := range ev.ts.live[v] {
			if ev.myCands[v][val] {
				continue
			}
			ev.addCandidate(v, val)
		}
	}
}

// discover unifies one new observation against the instance's own
// patterns — the inexact-template fallback for candidate discovery.
func (ev *Evaluator) discover(g algebra.Symbol) {
	for _, v := range ev.pg.vars {
		for _, pat := range ev.pg.Template.Symbols() {
			hasVar := false
			for _, t := range pat.Params {
				if t.IsVar && t.Value == v {
					hasVar = true
				}
			}
			if !hasVar {
				continue
			}
			for _, cand := range [2]algebra.Symbol{g, g.Complement()} {
				b, ok := Unify(pat, cand)
				if !ok {
					continue
				}
				val, bound := b[v]
				if !bound || ev.myCands[v][val] {
					continue
				}
				ev.addCandidate(v, val)
			}
		}
	}
}

// recheck re-evaluates the undecided instances depending on a symbol,
// pruning index entries for instances decided meanwhile.
func (ev *Evaluator) recheck(symKey string) {
	keys := ev.depIndex[symKey]
	for key := range keys {
		inst, live := ev.unknown[key]
		if !live {
			delete(keys, key)
			continue
		}
		mRechecks.Inc()
		switch evalFormulaFree(ev.h, inst) {
		case temporal.True:
			delete(ev.unknown, key) // discharged: never revisited
			delete(keys, key)
		case temporal.False:
			ev.failed = true
		}
	}
}

// addCandidate registers a newly relevant value for a variable and
// materializes the bindings it induces: every existing binding in
// which the variable is still fresh, extended with the value — the
// incremental form of the candidate cross product.
func (ev *Evaluator) addCandidate(v, val string) {
	ev.myCands[v][val] = true
	n := len(ev.bindings)
	for i := 0; i < n; i++ {
		b := ev.bindings[i]
		if _, bound := b[v]; bound {
			continue
		}
		nb := b.Clone()
		nb[v] = val
		ev.bindings = append(ev.bindings, nb)
		ev.assess(nb)
	}
}

// assess evaluates a newly materialized binding's instance and records
// the outcome: discharged instances are dropped, a failed instance
// fails the guard permanently, and undecided instances are indexed by
// their ground symbols for delta-driven rechecks.
func (ev *Evaluator) assess(b Binding) {
	inst := SubstFormula(ev.pg.Template, b)
	switch evalFormulaFree(ev.h, inst) {
	case temporal.True:
	case temporal.False:
		ev.failed = true
	default:
		key := b.Key()
		ev.unknown[key] = inst
		for sym := range groundSymKeys(inst) {
			deps := ev.depIndex[sym]
			if deps == nil {
				deps = map[string]bool{}
				ev.depIndex[sym] = deps
			}
			deps[key] = true
		}
	}
}
