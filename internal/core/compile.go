package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/algebra"
	"repro/internal/temporal"
)

// Workflow is a set of dependencies, each an expression of the event
// algebra (paper §3.1: "A workflow, W, is a set of dependencies").
type Workflow struct {
	// Deps are the dependencies, in specification order.
	Deps []*algebra.Expr
	// Names optionally labels each dependency for diagnostics; when
	// non-nil it has the same length as Deps.
	Names []string
}

// NewWorkflow builds a workflow from dependency expressions.
func NewWorkflow(deps ...*algebra.Expr) *Workflow {
	return &Workflow{Deps: deps}
}

// ParseWorkflow builds a workflow from dependency sources in the text
// syntax.
func ParseWorkflow(srcs ...string) (*Workflow, error) {
	w := &Workflow{}
	for i, src := range srcs {
		d, err := algebra.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("core: dependency %d: %w", i+1, err)
		}
		w.Deps = append(w.Deps, d)
	}
	return w, nil
}

// Alphabet returns the union of the dependencies' alphabets.
func (w *Workflow) Alphabet() algebra.Alphabet {
	a := make(algebra.Alphabet)
	for _, d := range w.Deps {
		for k, s := range d.Gamma() {
			a[k] = s
		}
	}
	return a
}

// Name returns the label of dependency i, or a positional default.
func (w *Workflow) Name(i int) string {
	if w.Names != nil && i < len(w.Names) && w.Names[i] != "" {
		return w.Names[i]
	}
	return fmt.Sprintf("D%d", i+1)
}

// EventGuard is the compiled guard of one event together with its
// provenance.
type EventGuard struct {
	// Event is the guarded symbol.
	Event algebra.Symbol
	// Guard is the conjunction of the per-dependency guards.
	Guard temporal.Formula
	// PerDep maps dependency index → that dependency's contribution,
	// for diagnostics and the wfc tool.
	PerDep map[int]temporal.Formula
	// Watches lists the symbols the guard mentions: the events whose
	// occurrences must be announced to this event's actor.
	Watches []algebra.Symbol
	// LocalNeg marks the ¬f literals of this guard whose agreement
	// round trip can be eliminated (keys are f's symbol keys).  The
	// paper's conclusions observe that "certain consensus requirements
	// can be eliminated without loss of correctness"; the sound
	// criterion implemented here: every product of f's own compiled
	// guard mentions this guard's event, so f cannot occur without a
	// fact (occurrence, complement, or promise) that only this event's
	// actor produces — making f's non-occurrence locally decidable.
	LocalNeg map[string]bool
}

// Compiled is a workflow compiled to its guard table: everything the
// distributed scheduler needs, computed once, before execution (the
// paper: "Much of the required symbolic reasoning can be precompiled,
// leading to efficiency at runtime").
type Compiled struct {
	// Workflow is the source specification.
	Workflow *Workflow
	// Guards maps each symbol of the workflow alphabet (both
	// polarities) to its compiled guard.
	Guards map[string]*EventGuard
	// Stats records the synthesis effort.
	Stats SynthStats
}

// CompileOptions configures workflow compilation.
type CompileOptions struct {
	// Parallelism bounds the number of goroutines synthesizing event
	// guards concurrently.  0 selects runtime.GOMAXPROCS(0); 1 compiles
	// sequentially on the calling goroutine.  Whatever the setting, the
	// compiled output — guard table, watch lists, LocalNeg sets, and
	// synthesis statistics — is bit-identical: per-event synthesis is
	// independent (Theorems 2/4), results are collected positionally in
	// sorted symbol order, and the Synthesizer's duplicate-suppressing
	// cache computes each memo key exactly once.
	Parallelism int
}

// Compile computes the guard of every symbol in the workflow's
// alphabet.  Per the paper (§4.2), the guard of an event due to a
// workflow is the conjunction of its guards due to the dependencies
// that mention the event (in either polarity); dependencies that do
// not mention it leave it unconstrained.  Synthesis fans out over
// GOMAXPROCS goroutines; use CompileWith to tune.
func Compile(w *Workflow) (*Compiled, error) {
	return compile(w, NewSynthesizer(), CompileOptions{})
}

// CompileWith is Compile with explicit options.
func CompileWith(w *Workflow, opts CompileOptions) (*Compiled, error) {
	return compile(w, NewSynthesizer(), opts)
}

// CompilePlain compiles without the Theorem 2/4 decompositions
// (benchmark P3's baseline).
func CompilePlain(w *Workflow) (*Compiled, error) {
	return compile(w, NewPlainSynthesizer(), CompileOptions{})
}

func compile(w *Workflow, sy *Synthesizer, opts CompileOptions) (*Compiled, error) {
	if len(w.Deps) == 0 {
		return nil, fmt.Errorf("core: workflow has no dependencies")
	}
	for i, d := range w.Deps {
		if d.IsZero() {
			return nil, fmt.Errorf("core: dependency %s is 0 (unsatisfiable)", w.Name(i))
		}
	}
	syms := w.Alphabet().Symbols()
	egs := make([]*EventGuard, len(syms))

	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(syms) {
		workers = len(syms)
	}
	if workers <= 1 {
		for i, s := range syms {
			egs[i] = synthesizeEvent(w, sy, s)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					egs[i] = synthesizeEvent(w, sy, syms[i])
				}
			}()
		}
		for i := range syms {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	c := &Compiled{Workflow: w, Guards: make(map[string]*EventGuard, len(egs))}
	for _, eg := range egs {
		c.Guards[eg.Event.Key()] = eg
	}
	// LocalNeg needs the full guard table, so it runs after the
	// barrier; iteration is over the sorted accessor so any future
	// order sensitivity cannot reintroduce nondeterminism.
	for _, eg := range c.EventGuards() {
		eg.LocalNeg = localNegSet(c, eg)
	}
	c.Stats = sy.Stats()
	return c, nil
}

// synthesizeEvent compiles one symbol's guard: the conjunction of its
// guards due to every dependency that mentions it.  It is called
// concurrently by compile's worker pool; it only reads w and calls the
// concurrency-safe Synthesizer.
func synthesizeEvent(w *Workflow, sy *Synthesizer, s algebra.Symbol) *EventGuard {
	eg := &EventGuard{Event: s, PerDep: make(map[int]temporal.Formula)}
	parts := []temporal.Formula{temporal.TrueF()}
	for i, d := range w.Deps {
		if !d.Gamma().HasEvent(s) {
			continue
		}
		g := sy.Guard(d, s)
		eg.PerDep[i] = g
		parts = append(parts, g)
	}
	eg.Guard = temporal.And(parts...)
	eg.Watches = watchList(eg.Guard, s)
	return eg
}

// localNegSet computes the consensus-elimination set of one event's
// guard: the ¬f literals for which f's own guard cannot become true
// without this event's actor's cooperation.
func localNegSet(c *Compiled, eg *EventGuard) map[string]bool {
	out := map[string]bool{}
	for _, p := range eg.Guard.Products() {
		for _, l := range p.Lits() {
			if l.Kind() != temporal.LitNotYet {
				continue
			}
			f := l.Sym()
			fGuard, ok := c.Guards[f.Key()]
			if !ok {
				continue // f unconstrained: consensus required
			}
			if guardRequiresEvent(fGuard.Guard, eg.Event) {
				out[f.Key()] = true
			}
		}
	}
	return out
}

// guardRequiresEvent reports whether every product of the guard
// mentions the given event (either polarity) — i.e. the guard can only
// be satisfied with that event's actor's participation.  The guard 0
// qualifies vacuously; ⊤ (an empty product) does not.
func guardRequiresEvent(g temporal.Formula, ev algebra.Symbol) bool {
	for _, p := range g.Products() {
		mentions := false
		for _, l := range p.Lits() {
			for _, s := range l.Syms() {
				if s.SameEvent(ev) {
					mentions = true
				}
			}
		}
		if !mentions {
			return false
		}
	}
	return true
}

// watchList returns the symbols a guard depends on, excluding the
// guarded event itself.
func watchList(g temporal.Formula, self algebra.Symbol) []algebra.Symbol {
	var out []algebra.Symbol
	for _, s := range g.Symbols() {
		if s.SameEvent(self) {
			continue
		}
		out = append(out, s)
	}
	return out
}

// GuardOf returns the compiled guard of a symbol; events outside the
// workflow alphabet are unconstrained (⊤).
func (c *Compiled) GuardOf(s algebra.Symbol) temporal.Formula {
	if eg, ok := c.Guards[s.Key()]; ok {
		return eg.Guard
	}
	return temporal.TrueF()
}

// EventGuards returns the compiled guards sorted by event key: the
// canonical deterministic iteration order.  Every consumer whose
// output or analysis is order-sensitive (printers, traces, LocalNeg)
// must range over this instead of the Guards map.
func (c *Compiled) EventGuards() []*EventGuard {
	out := make([]*EventGuard, 0, len(c.Guards))
	for _, eg := range c.Guards {
		out = append(out, eg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Event.Less(out[j].Event) })
	return out
}

// TotalGuardSize returns the summed literal count of all guards, a
// compilation-size metric for benchmark P1.
func (c *Compiled) TotalGuardSize() int {
	n := 0
	for _, eg := range c.Guards {
		n += eg.Guard.Size()
	}
	return n
}
