// Package dep is the dependency-pattern library: the intertask
// dependency primitives of the literature the paper builds on,
// expressed as constructors over the event algebra.
//
// The two primitives of Klein [10] — which the paper notes can capture
// those of ACTA [3] and Günthör [8] — are Before (e < f) and Implies
// (e → f); the remaining patterns are the idioms the paper's examples
// use: ordered enablement, compensation, exclusion, and coupling.
// Every constructor returns a plain expression, so patterns compose
// freely with hand-written dependencies.
package dep

import (
	"repro/internal/algebra"
	"repro/internal/core"
)

// Before is Klein's e < f: if both events occur, e precedes f.
// Formalized as ē + f̄ + e·f (paper, Example 3).
func Before(e, f algebra.Symbol) *algebra.Expr {
	return algebra.Choice(
		algebra.At(e.Complement()),
		algebra.At(f.Complement()),
		algebra.Seq(algebra.At(e), algebra.At(f)),
	)
}

// Implies is Klein's e → f: if e occurs then f also occurs, before or
// after e.  Formalized as ē + f (paper, Example 2).
func Implies(e, f algebra.Symbol) *algebra.Expr {
	return algebra.Choice(algebra.At(e.Complement()), algebra.At(f))
}

// Enables is ordered implication: e occurs only after f has, and
// conversely f's occurrence permits e.  Formalized as ē + f·e.
// This is the paper's dependency (2): "if buy commits, it commits
// after book".
func Enables(f, e algebra.Symbol) *algebra.Expr {
	return algebra.Choice(
		algebra.At(e.Complement()),
		algebra.Seq(algebra.At(f), algebra.At(e)),
	)
}

// Compensate is the paper's dependency (3) pattern: if the committed
// event occurs, then either the success event occurs or the
// compensation does.  Formalized as c̄ + s + k.
func Compensate(committed, success, compensation algebra.Symbol) *algebra.Expr {
	return algebra.Choice(
		algebra.At(committed.Complement()),
		algebra.At(success),
		algebra.At(compensation),
	)
}

// OnlyIfNever restricts e to executions in which f never occurs:
// ē + f̄.  The paper's Example 4 closes with this strengthening
// ("cancel only when buy never commits").
func OnlyIfNever(e, f algebra.Symbol) *algebra.Expr {
	return algebra.Choice(algebra.At(e.Complement()), algebra.At(f.Complement()))
}

// Exclusive forbids the two events from both occurring: ē + f̄.
// It is OnlyIfNever read symmetrically.
func Exclusive(e, f algebra.Symbol) *algebra.Expr { return OnlyIfNever(e, f) }

// Coupled makes the events occur together or not at all: the pair of
// implications e → f and f → e.
func Coupled(e, f algebra.Symbol) []*algebra.Expr {
	return []*algebra.Expr{Implies(e, f), Implies(f, e)}
}

// Chain orders the events pairwise: e1 < e2 < … < en.
func Chain(events ...algebra.Symbol) []*algebra.Expr {
	var out []*algebra.Expr
	for i := 0; i+1 < len(events); i++ {
		out = append(out, Before(events[i], events[i+1]))
	}
	return out
}

// MutexPair is Example 13's parametrized mutual exclusion in one
// direction: if task i enters its critical section before task j
// enters, then i exits before j enters.  Events: bi/ei are i's
// enter/exit types, bj is j's enter type.
func MutexPair(bi, ei, bj algebra.Symbol) *algebra.Expr {
	return algebra.Choice(
		algebra.Seq(algebra.At(bj), algebra.At(bi)),
		algebra.At(ei.Complement()),
		algebra.At(bj.Complement()),
		algebra.Seq(algebra.At(ei), algebra.At(bj)),
	)
}

// Travel is the paper's Example 4 workflow over the given event
// symbols; strengthen adds the fourth dependency the paper discusses
// (cancel only when buy never commits).
func Travel(sBuy, cBuy, sBook, cBook, sCancel algebra.Symbol, strengthen bool) *core.Workflow {
	w := core.NewWorkflow(
		Implies(sBuy, sBook),
		Enables(cBook, cBuy),
		Compensate(cBook, cBuy, sCancel),
	)
	w.Names = []string{"init", "order", "comp"}
	if strengthen {
		w.Deps = append(w.Deps, OnlyIfNever(sCancel, cBuy))
		w.Names = append(w.Names, "only")
	}
	return w
}
