// Package param implements §5 of the paper: parametrized events and
// the scheduling of dependencies over them, which is what lets the
// approach handle tasks of arbitrary structure — loops included.
//
// Event atoms carry a tuple of parameter terms; a term is either a
// constant or a variable (written ?x in the text syntax).  Two uses
// are supported, mirroring §5.1 and §5.2:
//
//   - Intra-workflow parametrization (Template): the variables of all
//     events are bound together when a key event occurs, instantiating
//     the workflow afresh; the instance is then compiled and scheduled
//     exactly like a ground workflow.
//
//   - Inter-workflow parametrization (ParamGuard, Manager): events in
//     one dependency carry unrelated parameters; unbound parameters in
//     a guard are treated as universally quantified.  A guard instance
//     is materialized for each binding the history makes relevant, and
//     discharged instances disappear — the guard "grows and shrinks as
//     necessary" and is resurrected for fresh instances, which is what
//     loops require (Example 14).
//
// Event identity without domain parameters follows §5.1's recipe: each
// agent numbers the occurrences of its event types (Counter), making
// every token unique.
package param

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/algebra"
)

// Binding maps variable names to constant values.
type Binding map[string]string

// Key returns a canonical text form of the binding.
func (b Binding) Key() string {
	if len(b) == 0 {
		return "{}"
	}
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + b[k]
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Clone returns an independent copy.
func (b Binding) Clone() Binding {
	cp := make(Binding, len(b))
	for k, v := range b {
		cp[k] = v
	}
	return cp
}

// Unify matches a (possibly parametrized) pattern symbol against a
// ground symbol: same name, same polarity, same arity; variables bind
// to the ground constants, constants must match literally.
func Unify(pattern, ground algebra.Symbol) (Binding, bool) {
	if pattern.Name != ground.Name || pattern.Bar != ground.Bar ||
		len(pattern.Params) != len(ground.Params) {
		return nil, false
	}
	b := Binding{}
	for i, pt := range pattern.Params {
		gt := ground.Params[i]
		if gt.IsVar {
			return nil, false // ground side must be ground
		}
		if pt.IsVar {
			if prev, ok := b[pt.Value]; ok && prev != gt.Value {
				return nil, false
			}
			b[pt.Value] = gt.Value
			continue
		}
		if pt.Value != gt.Value {
			return nil, false
		}
	}
	return b, true
}

// SubstSymbol applies a binding to a symbol's variable parameters;
// unbound variables are left in place.
func SubstSymbol(s algebra.Symbol, b Binding) algebra.Symbol {
	if len(s.Params) == 0 {
		return s
	}
	params := make([]algebra.Term, len(s.Params))
	for i, t := range s.Params {
		if t.IsVar {
			if v, ok := b[t.Value]; ok {
				params[i] = algebra.Const(v)
				continue
			}
		}
		params[i] = t
	}
	out := s
	out.Params = params
	return out
}

// SubstExpr applies a binding throughout an expression.
func SubstExpr(e *algebra.Expr, b Binding) *algebra.Expr {
	switch e.Kind() {
	case algebra.KZero, algebra.KTop:
		return e
	case algebra.KAtom:
		return algebra.At(SubstSymbol(e.Symbol(), b))
	case algebra.KSeq:
		return algebra.Seq(substAll(e.Subs(), b)...)
	case algebra.KChoice:
		return algebra.Choice(substAll(e.Subs(), b)...)
	case algebra.KConj:
		return algebra.Conj(substAll(e.Subs(), b)...)
	}
	panic("param: invalid expression kind")
}

func substAll(es []*algebra.Expr, b Binding) []*algebra.Expr {
	out := make([]*algebra.Expr, len(es))
	for i, e := range es {
		out[i] = SubstExpr(e, b)
	}
	return out
}

// Vars returns the distinct variable names of an expression, sorted.
func Vars(e *algebra.Expr) []string {
	seen := map[string]bool{}
	for _, s := range e.Atoms() {
		for _, t := range s.Params {
			if t.IsVar {
				seen[t.Value] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Ground reports whether the expression has no variables.
func Ground(e *algebra.Expr) bool { return len(Vars(e)) == 0 }

// Counter issues per-event-type occurrence counts, the §5.1 recipe for
// unique event ids when no domain identifier exists.  The zero value
// is ready to use.
type Counter struct {
	counts map[string]int
}

// Next returns the ground token for the next instance of the event
// type: the type's symbol with the count appended as a final constant
// parameter.
func (c *Counter) Next(eventType algebra.Symbol) algebra.Symbol {
	if c.counts == nil {
		c.counts = make(map[string]int)
	}
	base := eventType.Base().Key()
	c.counts[base]++
	out := eventType
	out.Params = append(append([]algebra.Term(nil), eventType.Params...),
		algebra.Const(fmt.Sprintf("%d", c.counts[base])))
	return out
}
