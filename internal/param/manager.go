package param

import (
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/temporal"
)

// Outcome of an attempt at the parametrized manager.
type Outcome uint8

// Attempt outcomes.
const (
	// Accepted: the event occurred.
	Accepted Outcome = iota
	// Parked: the event must wait; it is retried automatically as
	// occurrences accumulate.
	Parked
	// Rejected: the event can never occur (its complement occurred or
	// its guard is permanently false).
	Rejected
)

func (o Outcome) String() string {
	switch o {
	case Accepted:
		return "accepted"
	case Parked:
		return "parked"
	case Rejected:
		return "rejected"
	}
	return "invalid"
}

// Manager schedules ground event tokens against parametrized
// dependencies (§5.2).  It synthesizes one guard template per
// (dependency, event type) — precompilation — and, at each attempt,
// unifies the ground token against the type, instantiates the
// template, and evaluates it universally over the remaining variables.
//
// The manager is a single-site scheduler: §5's contribution is the
// reasoning over parameters, which is orthogonal to the distribution
// machinery of §4 (the distributed actors would hold ParamGuards
// instead of ground guards).  It is what makes tasks with loops and
// arbitrary structure schedulable: every iteration is a fresh token
// and guards resurrect for it.
type Manager struct {
	deps      []*algebra.Expr
	gamma     [][]algebra.Symbol // per dependency: distinct Γ_D symbols, sorted
	hist      History
	synth     *core.Synthesizer
	templates map[string]*templateState // depIdx:eventTypeKey → guard template + shared candidate index
	// evals holds one persistent incremental Evaluator per guard
	// instance of each live token, keyed by the token; dropped once the
	// token is accepted or rejected.  When scratch is set (the P9
	// ablation and the equivalence tests), attempts fall back to the
	// from-scratch ParamGuard.Eval re-enumeration instead.
	evals    map[string][]*Evaluator
	scratch  bool
	parked   []algebra.Symbol
	rejected map[string]bool
	trace    []algebra.Symbol
	time     int64
}

// NewManager builds a manager from parametrized dependency sources.
func NewManager(deps ...string) (*Manager, error) {
	m := &Manager{
		synth:     core.NewSynthesizer(),
		templates: map[string]*templateState{},
		evals:     map[string][]*Evaluator{},
		rejected:  map[string]bool{},
	}
	for i, src := range deps {
		d, err := algebra.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("param: dependency %d: %w", i+1, err)
		}
		m.deps = append(m.deps, d)
	}
	if len(m.deps) == 0 {
		return nil, fmt.Errorf("param: manager needs at least one dependency")
	}
	for _, d := range m.deps {
		m.gamma = append(m.gamma, gammaTypes(d))
	}
	return m, nil
}

// DisableIncremental switches the manager to the from-scratch
// universal evaluation (ParamGuard.Eval) for every attempt — the
// ablation baseline for experiment P9 and the oracle for the
// incremental-equivalence property tests.  Call before the first
// attempt; modes must not be mixed mid-run.
func (m *Manager) DisableIncremental() { m.scratch = true }

// guardFor returns the (cached) guard template of an event type under
// one dependency, with the candidate index its tokens share.
func (m *Manager) guardFor(depIdx int, eventType algebra.Symbol) *templateState {
	key := fmt.Sprintf("%d:%s", depIdx, eventType.Key())
	if ts, ok := m.templates[key]; ok {
		return ts
	}
	ts := newTemplateState(NewParamGuard(m.synth.Guard(m.deps[depIdx], eventType)), &m.hist)
	m.templates[key] = ts
	return ts
}

// GuardInstances returns, for a ground token, every instantiated guard
// it must satisfy: one per (dependency, unifying event type).
func (m *Manager) GuardInstances(ground algebra.Symbol) []*ParamGuard {
	var out []*ParamGuard
	for i := range m.deps {
		for _, atomSym := range m.gamma[i] {
			b, ok := Unify(atomSym, ground)
			if !ok {
				continue
			}
			tmpl := m.guardFor(i, atomSym).pg
			inst := SubstFormula(tmpl.Template, b)
			out = append(out, NewParamGuard(inst))
		}
	}
	return out
}

// gammaTypes returns the distinct symbols of Γ_D sorted by key.
func gammaTypes(d *algebra.Expr) []algebra.Symbol {
	g := d.Gamma()
	out := g.Symbols()
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Attempt submits a ground event token.  Parked tokens are retried on
// every later occurrence.
func (m *Manager) Attempt(ground algebra.Symbol) (Outcome, error) {
	if !ground.Ground() {
		return Rejected, fmt.Errorf("param: attempt of non-ground symbol %s", ground)
	}
	if m.hist.Occurred(ground) {
		return Accepted, nil
	}
	if m.rejected[ground.Key()] || m.hist.Occurred(ground.Complement()) {
		m.rejected[ground.Key()] = true
		m.dropEvals(ground)
		return Rejected, nil
	}
	switch m.eval(ground) {
	case temporal.True:
		m.fire(ground)
		return Accepted, nil
	case temporal.False:
		m.rejected[ground.Key()] = true
		m.dropEvals(ground)
		return Rejected, nil
	default:
		m.park(ground)
		return Parked, nil
	}
}

func (m *Manager) eval(ground algebra.Symbol) temporal.Tri {
	if m.scratch {
		result := temporal.True
		for _, pg := range m.GuardInstances(ground) {
			switch pg.Eval(&m.hist) {
			case temporal.False:
				return temporal.False
			case temporal.Unknown:
				result = temporal.Unknown
			}
		}
		return result
	}
	result := temporal.True
	for _, e := range m.evaluatorsFor(ground) {
		switch e.Eval() {
		case temporal.False:
			return temporal.False
		case temporal.Unknown:
			result = temporal.Unknown
		}
	}
	return result
}

// evaluatorsFor returns the token's persistent incremental evaluators,
// building them on the token's first attempt.
func (m *Manager) evaluatorsFor(ground algebra.Symbol) []*Evaluator {
	k := ground.Key()
	if evs, ok := m.evals[k]; ok {
		return evs
	}
	var evs []*Evaluator
	for i := range m.deps {
		for _, atomSym := range m.gamma[i] {
			b, ok := Unify(atomSym, ground)
			if !ok {
				continue
			}
			ts := m.guardFor(i, atomSym)
			inst := SubstFormula(ts.pg.Template, b)
			evs = append(evs, newEvaluatorWith(NewParamGuard(inst), &m.hist, ts))
		}
	}
	m.evals[k] = evs
	return evs
}

// dropEvals releases a settled token's evaluators (and their binding
// populations).
func (m *Manager) dropEvals(ground algebra.Symbol) {
	delete(m.evals, ground.Key())
}

func (m *Manager) park(ground algebra.Symbol) {
	for _, p := range m.parked {
		if p.Equal(ground) {
			return
		}
	}
	m.parked = append(m.parked, ground)
}

func (m *Manager) fire(ground algebra.Symbol) {
	m.time++
	m.hist.Observe(ground, m.time)
	m.trace = append(m.trace, ground)
	m.dropEvals(ground)
	m.retryParked()
}

// retryParked re-evaluates parked tokens after each occurrence;
// acceptance cascades, and tokens whose complements occurred are
// dropped as rejected.
func (m *Manager) retryParked() {
	for progress := true; progress; {
		progress = false
		kept := m.parked[:0]
		for _, p := range m.parked {
			if m.hist.Occurred(p.Complement()) {
				m.rejected[p.Key()] = true
				m.dropEvals(p)
				progress = true
				continue
			}
			switch m.eval(p) {
			case temporal.True:
				m.time++
				m.hist.Observe(p, m.time)
				m.trace = append(m.trace, p)
				m.dropEvals(p)
				progress = true
			case temporal.False:
				m.rejected[p.Key()] = true
				m.dropEvals(p)
				progress = true
			default:
				kept = append(kept, p)
			}
		}
		m.parked = kept
	}
}

// Trace returns the occurrence sequence so far.
func (m *Manager) Trace() algebra.Trace { return append(algebra.Trace(nil), m.trace...) }

// SatisfiesInstances checks the realized trace against every ground
// instantiation of the dependencies over the bindings the trace makes
// relevant — the §5.2 correctness criterion.  It returns the first
// violated instance, if any.
//
// Each instance is checked on the trace projected onto the symbols it
// mentions.  ⊨ reads a trace only through atom membership and cuts,
// and every cut of the projection lifts to a cut of the full trace, so
// the verdict is the one the full trace gives — but the cost per
// instance follows its few atoms, not the trace length.
func (m *Manager) SatisfiesInstances() (violated *algebra.Expr, ok bool) {
	tr := m.Trace()
	at := make(map[string][]int, len(tr)) // symbol key → trace positions
	for i, s := range tr {
		k := s.Key()
		at[k] = append(at[k], i)
	}
	var pos []int
	var proj algebra.Trace
	for _, d := range m.deps {
		for _, b := range groundBindings(d, tr) {
			inst := SubstExpr(d, b)
			if !Ground(inst) {
				continue
			}
			// Atoms are distinct keys, so their positions never collide.
			pos = pos[:0]
			for _, a := range inst.Atoms() {
				pos = append(pos, at[a.Key()]...)
			}
			sort.Ints(pos)
			proj = proj[:0]
			for _, p := range pos {
				proj = append(proj, tr[p])
			}
			if !proj.Satisfies(inst) {
				return inst, false
			}
		}
	}
	return nil, true
}

// groundBindings enumerates the cross product of each variable's
// observed values in the trace.
func groundBindings(d *algebra.Expr, tr algebra.Trace) []Binding {
	vars := Vars(d)
	out := []Binding{{}}
	for _, v := range vars {
		seen := map[string]bool{}
		for _, pat := range d.Atoms() {
			for _, g := range tr {
				for _, cand := range []algebra.Symbol{g, g.Complement()} {
					if b, okU := Unify(pat, cand); okU {
						if val, bound := b[v]; bound {
							seen[val] = true
						}
					}
				}
			}
		}
		var vals []string
		for c := range seen {
			vals = append(vals, c)
		}
		sort.Strings(vals)
		var next []Binding
		for _, b := range out {
			for _, c := range vals {
				nb := b.Clone()
				nb[v] = c
				next = append(next, nb)
			}
		}
		if len(next) > 0 {
			out = next
		}
	}
	return out
}
