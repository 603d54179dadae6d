package param

import (
	"sort"

	"repro/internal/algebra"
	"repro/internal/temporal"
)

// History is the ground-event knowledge of a parametrized scheduler:
// a temporal.Knowledge plus the enumerable list of occurrences, from
// which candidate bindings are extracted.
type History struct {
	know    temporal.Knowledge
	grounds []algebra.Symbol
}

// Observe records a ground occurrence at a logical time.
func (h *History) Observe(s algebra.Symbol, t int64) {
	h.know.Observe(s, t)
	h.grounds = append(h.grounds, s)
}

// Occurred reports whether the ground symbol occurred.
func (h *History) Occurred(s algebra.Symbol) bool {
	return h.know.Status(s) == temporal.StatusOccurred
}

// candidates returns the constants observed for a variable: every
// value the variable takes under any unification of the formula's
// parametrized symbols against the observed occurrences (polarity
// ignored — a superset of the relevant bindings is safe, since
// irrelevant instances evaluate like fresh ones).
func (h *History) candidates(f temporal.Formula, v string) []string {
	seen := map[string]bool{}
	for _, pat := range f.Symbols() {
		hasVar := false
		for _, t := range pat.Params {
			if t.IsVar && t.Value == v {
				hasVar = true
			}
		}
		if !hasVar {
			continue
		}
		for _, g := range h.grounds {
			for _, cand := range []algebra.Symbol{g, g.Complement()} {
				if b, ok := Unify(pat, cand); ok {
					if val, bound := b[v]; bound {
						seen[val] = true
					}
				}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// ParamGuard is a guard template over parametrized events whose
// unbound variables are universally quantified (§5.2).  Evaluation
// materializes an instance per relevant binding; instances that the
// history has discharged contribute ⊤ and disappear, and fresh
// bindings keep the template alive — the growth, shrinking, and
// resurrection of Example 14.
type ParamGuard struct {
	// Template is the guard formula, possibly with variable symbols.
	Template temporal.Formula
	vars     []string
}

// NewParamGuard builds a guard from a template formula.
func NewParamGuard(template temporal.Formula) *ParamGuard {
	seen := map[string]bool{}
	for _, s := range template.Symbols() {
		for _, t := range s.Params {
			if t.IsVar {
				seen[t.Value] = true
			}
		}
	}
	vars := make([]string, 0, len(seen))
	for v := range seen {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return &ParamGuard{Template: template, vars: vars}
}

// SubstFormula applies a binding to every symbol of a formula.
func SubstFormula(f temporal.Formula, b Binding) temporal.Formula {
	if f.IsTrue() || f.IsFalse() || len(b) == 0 {
		return f
	}
	return temporal.MapLiterals(f, func(l temporal.Literal) temporal.Literal {
		return substLit(l, b)
	})
}

func substLit(l temporal.Literal, b Binding) temporal.Literal {
	switch l.Kind() {
	case temporal.LitOccurred:
		return temporal.Occurred(SubstSymbol(l.Sym(), b))
	case temporal.LitNotYet:
		return temporal.NotYet(SubstSymbol(l.Sym(), b))
	default:
		syms := make([]algebra.Symbol, len(l.Syms()))
		for i, s := range l.Syms() {
			syms[i] = SubstSymbol(s, b)
		}
		return temporal.Eventually(syms...)
	}
}

// Eval evaluates the guard universally: the conjunction, over every
// relevant binding of the variables (including a fresh, never-seen
// value per variable), of the instantiated formula.  Literals still
// containing a free variable after instantiation evaluate as a fresh
// instance: ¬ literals hold (nothing with that identity has occurred),
// □ and ◇ literals do not.
func (pg *ParamGuard) Eval(h *History) temporal.Tri {
	result := temporal.True
	for _, b := range pg.relevantBindings(h) {
		switch pg.evalInstance(h, b) {
		case temporal.False:
			return temporal.False
		case temporal.Unknown:
			result = temporal.Unknown
		}
	}
	return result
}

// relevantBindings enumerates the cross product of each variable's
// observed candidates plus one fresh value (the empty assignment for
// that variable).
func (pg *ParamGuard) relevantBindings(h *History) []Binding {
	out := []Binding{{}}
	for _, v := range pg.vars {
		cands := h.candidates(pg.Template, v)
		var next []Binding
		for _, b := range out {
			// Fresh value: leave v unbound.
			next = append(next, b.Clone())
			for _, c := range cands {
				nb := b.Clone()
				nb[v] = c
				next = append(next, nb)
			}
		}
		out = next
	}
	return out
}

func (pg *ParamGuard) evalInstance(h *History, b Binding) temporal.Tri {
	return evalFormulaFree(h, SubstFormula(pg.Template, b))
}

// evalFormulaFree evaluates an instantiated formula (possibly with
// residual free variables) against the history; shared by the
// from-scratch Eval and the incremental Evaluator.
func evalFormulaFree(h *History, inst temporal.Formula) temporal.Tri {
	anyUnknown := false
	for _, p := range inst.Products() {
		v := evalProductFree(h, p)
		if v == temporal.True {
			return temporal.True
		}
		if v == temporal.Unknown {
			anyUnknown = true
		}
	}
	if inst.IsTrue() {
		return temporal.True
	}
	if anyUnknown {
		return temporal.Unknown
	}
	return temporal.False
}

func evalProductFree(h *History, p temporal.Product) temporal.Tri {
	anyUnknown := false
	for _, l := range p.Lits() {
		switch evalLitFree(h, l) {
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

// evalLitFree evaluates a literal whose symbols may still contain free
// variables, which denote fresh identities: ground tokens that will
// never be minted.  For a fresh identity nothing has occurred (¬
// holds, □ does not), and — because executions are driven to maximal
// traces — the complement of each of its events eventually occurs at
// closeout.  Hence ◇ literals hold when their free members are all
// complements forming a suffix after a satisfiable ground prefix
// (closure events come after all real occurrences); any free positive
// member can never occur, and a ground member required after a free
// complement would have to follow closure, so both falsify.
func evalLitFree(h *History, l temporal.Literal) temporal.Tri {
	if litGround(l) {
		return h.know.DecideLit(l)
	}
	switch l.Kind() {
	case temporal.LitNotYet:
		return temporal.True
	case temporal.LitOccurred:
		return temporal.False
	default:
		syms := l.Syms()
		firstFree := -1
		for i, s := range syms {
			if !s.Ground() {
				if firstFree == -1 {
					firstFree = i
				}
				if !s.Bar {
					return temporal.False
				}
				continue
			}
			if firstFree != -1 {
				return temporal.False
			}
		}
		if firstFree == 0 {
			return temporal.True
		}
		return h.know.DecideLit(temporal.Eventually(syms[:firstFree]...))
	}
}

func litGround(l temporal.Literal) bool {
	for _, s := range l.Syms() {
		if !s.Ground() {
			return false
		}
	}
	return true
}

// Current returns the guard's present shape for inspection: the
// conjunction of the reduced live instances with the template itself
// (Example 14's display).  Discharged instances vanish; when every
// observed instance is discharged, the result is the template again —
// the resurrection.
func (pg *ParamGuard) Current(h *History) temporal.Formula {
	parts := []temporal.Formula{pg.Template}
	for _, b := range pg.relevantBindings(h) {
		if len(b) < len(pg.vars) {
			continue // partial or fresh: represented by the template
		}
		inst := h.know.Reduce(SubstFormula(pg.Template, b))
		if inst.IsTrue() {
			continue // discharged
		}
		parts = append(parts, inst)
	}
	return temporal.And(parts...)
}
