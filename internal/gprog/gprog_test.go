package gprog

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/symtab"
	"repro/internal/temporal"
)

// The tests here all prove one thing: the compiled bitset program is
// verdict-identical to the tree-walking evaluator over
// temporal.Knowledge — literal-for-literal mutator mirroring, the
// permanent-facts view, the consensus-local virtual-hold overlay, the
// residual guard Reduce prints, and the inquiry targets the residual
// names.

var testNames = []string{"a", "b", "c", "d", "e", "f"}

func sym(name string, bar bool) algebra.Symbol {
	s := algebra.Symbol{Name: name}
	if bar {
		s = s.Complement()
	}
	return s
}

func randSym(r *rand.Rand) algebra.Symbol {
	return sym(testNames[r.Intn(len(testNames))], r.Intn(2) == 0)
}

// randFormula builds a random canonical sum-of-products guard.
func randFormula(r *rand.Rand) temporal.Formula {
	nprod := 1 + r.Intn(4)
	prods := make([]temporal.Formula, 0, nprod)
	for i := 0; i < nprod; i++ {
		nlit := 1 + r.Intn(4)
		lits := make([]temporal.Formula, 0, nlit)
		for j := 0; j < nlit; j++ {
			lits = append(lits, temporal.Lit(randLit(r)))
		}
		prods = append(prods, temporal.And(lits...))
	}
	return temporal.Or(prods...)
}

func randLit(r *rand.Rand) temporal.Literal {
	switch r.Intn(3) {
	case 0:
		return temporal.Occurred(randSym(r))
	case 1:
		return temporal.NotYet(randSym(r))
	default:
		n := 1 + r.Intn(3)
		syms := make([]algebra.Symbol, n)
		for i := range syms {
			syms[i] = randSym(r)
		}
		return temporal.Eventually(syms...)
	}
}

// oracle is the tree evaluator's knowledge kept beside a State, with
// the mutation history that rebuilds it: the consensus-local oracle is
// a copy with the local symbols held.
type oracle struct {
	temporal.Knowledge
	ops []func(*temporal.Knowledge)
}

func (o *oracle) do(f func(*temporal.Knowledge)) {
	f(&o.Knowledge)
	o.ops = append(o.ops, f)
}

// heldView replays the history into a fresh knowledge and holds every
// still-unknown local symbol: the view a clean consensus-local decision
// evaluates in.
func (o *oracle) heldView(ln map[string]algebra.Symbol) *temporal.Knowledge {
	var v temporal.Knowledge
	for _, f := range o.ops {
		f(&v)
	}
	for _, s := range ln {
		if v.Status(s) == temporal.StatusUnknown {
			v.Hold(s)
		}
	}
	return &v
}

// mutate applies one random mutation to both views and reports what it
// did (for failure messages).
func mutate(r *rand.Rand, k *oracle, st *State) string {
	s := randSym(r)
	switch r.Intn(7) {
	case 0:
		t := int64(r.Intn(20))
		k.do(func(k *temporal.Knowledge) { k.Observe(s, t) })
		st.Observe(s, t)
		return "observe " + s.Key()
	case 1:
		k.do(func(k *temporal.Knowledge) { k.Hold(s) })
		st.Hold(s)
		return "hold " + s.Key()
	case 2:
		k.do(func(k *temporal.Knowledge) { k.Unhold(s) })
		st.Unhold(s)
		return "unhold " + s.Key()
	case 3:
		k.do(func(k *temporal.Knowledge) { k.MarkImpossible(s) })
		st.MarkImpossible(s)
		return "impossible " + s.Key()
	case 4:
		k.do(func(k *temporal.Knowledge) { k.Promise(s) })
		st.Promise(s)
		return "promise " + s.Key()
	case 5:
		k.do(func(k *temporal.Knowledge) { k.CondPromise(s) })
		st.CondPromise(s)
		return "condpromise " + s.Key()
	default:
		k.do(func(k *temporal.Knowledge) { k.ClearCond(s) })
		st.ClearCond(s)
		return "clearcond " + s.Key()
	}
}

func TestCompileShapes(t *testing.T) {
	top := GuardInput{Guard: temporal.TrueF()}
	bot := GuardInput{Guard: temporal.FalseF()}
	p := Compile(top, bot)
	s := p.NewState()
	if v := s.Decide(PolPos, false); v != temporal.True {
		t.Fatalf("⊤ guard decided %v", v)
	}
	if v := s.Decide(PolNeg, false); v != temporal.False {
		t.Fatalf("0 guard decided %v", v)
	}
	if v := s.Eval(PolPos); v != temporal.True {
		t.Fatalf("⊤ guard evaluated %v", v)
	}
	if v := s.Eval(PolNeg); v != temporal.False {
		t.Fatalf("0 guard evaluated %v", v)
	}

	a, b := sym("a", false), sym("b", false)
	g := temporal.And(temporal.Lit(temporal.Occurred(a)), temporal.Lit(temporal.NotYet(b)))
	p = Compile(GuardInput{Guard: g}, GuardInput{Guard: temporal.TrueF()})
	s = p.NewState()
	if v := s.Decide(PolPos, false); v != temporal.Unknown {
		t.Fatalf("fresh []a·!b decided %v", v)
	}
	s.Observe(a, 1)
	if v := s.Decide(PolPos, false); v != temporal.Unknown {
		t.Fatalf("after []a, []a·!b decided %v", v)
	}
	s.Hold(b)
	if v := s.Decide(PolPos, false); v != temporal.True {
		t.Fatalf("after []a and hold b, []a·!b decided %v", v)
	}
	if v := s.Eval(PolPos); v != temporal.Unknown {
		t.Fatalf("held b must not count permanently, got %v", v)
	}
	s.Unhold(b)
	s.Observe(b, 2)
	if v := s.Decide(PolPos, false); v != temporal.False {
		t.Fatalf("after []b, []a·!b decided %v", v)
	}
}

// TestMirrorsKnowledge drives random mutation sequences through a
// Knowledge and a State in lockstep and demands identical Decide/Eval
// verdicts for both polarities after every step — the bit-identical
// equivalence the actor's decisions rest on.
func TestMirrorsKnowledge(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		pos, neg := randFormula(r), randFormula(r)
		p := Compile(GuardInput{Guard: pos}, GuardInput{Guard: neg})
		st := p.NewState()
		var k oracle
		var log []string
		for step := 0; step < 25; step++ {
			log = append(log, mutate(r, &k, st))
			for pol, g := range []temporal.Formula{pos, neg} {
				if got, want := st.Decide(pol, false), k.Decide(g); got != want {
					t.Fatalf("trial %d step %d: Decide(pol %d) = %v, knowledge says %v\nguard %s\nknow %s\nops %v",
						trial, step, pol, got, want, g.Key(), k.String(), log)
				}
				if got, want := st.Eval(pol), k.Eval(g); got != want {
					t.Fatalf("trial %d step %d: Eval(pol %d) = %v, knowledge says %v\nguard %s\nknow %s\nops %v",
						trial, step, pol, got, want, g.Key(), k.String(), log)
				}
			}
		}
	}
}

// TestResidualChainAgreement replays protocol-like monotone fact
// sequences — each event observed at most once, never after its
// complement, with transient holds — and checks the program's verdict
// on the original guard against the tree evaluator's verdict on the
// Reduce-residual chain the tree evaluator computes.
func TestResidualChainAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		g := randFormula(r)
		p := Compile(GuardInput{Guard: g}, GuardInput{Guard: temporal.TrueF()})
		st := p.NewState()
		var k temporal.Knowledge
		residual := g
		now := int64(0)
		held := map[string]algebra.Symbol{}
		for step := 0; step < 20; step++ {
			s := randSym(r)
			switch r.Intn(4) {
			case 0: // observe, protocol-style: only undecided events occur
				if k.Status(s) == temporal.StatusUnknown || k.Status(s) == temporal.StatusHeld {
					now++
					k.Observe(s, now)
					st.Observe(s, now)
					delete(held, s.Key())
					delete(held, s.Complement().Key())
				}
			case 1: // hold (inquiry round claim)
				k.Hold(s)
				st.Hold(s)
				if k.Status(s) == temporal.StatusHeld {
					held[s.Key()] = s
				}
			case 2: // release
				k.Unhold(s)
				st.Unhold(s)
				delete(held, s.Key())
			case 3: // learned impossibility (inquiry reply)
				if k.Status(s) == temporal.StatusUnknown {
					k.MarkImpossible(s)
					st.MarkImpossible(s)
				}
			}
			residual = k.Reduce(residual)
			if got, want := st.Eval(PolPos) == temporal.False, residual.IsFalse(); got != want {
				t.Fatalf("trial %d step %d: program false=%v, residual %s false=%v (guard %s, know %s)",
					trial, step, got, residual.Key(), want, g.Key(), k.String())
			}
			if got, want := st.Decide(PolPos, false), k.Decide(residual); got != want {
				t.Fatalf("trial %d step %d: program Decide=%v, tree Decide(residual %s)=%v (guard %s, know %s)",
					trial, step, got, residual.Key(), want, g.Key(), k.String())
			}
		}
	}
}

// TestLocalOverlay checks the consensus-local virtual-hold overlay
// against the tree evaluator's held view.
func TestLocalOverlay(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		g := randFormula(r)
		ln := map[string]algebra.Symbol{}
		for i := 0; i < 1+r.Intn(3); i++ {
			s := randSym(r)
			ln[s.Key()] = s
		}
		p := Compile(GuardInput{Guard: g, LocalNeg: ln}, GuardInput{Guard: temporal.TrueF()})
		st := p.NewState()
		var k oracle
		for step := 0; step < 15; step++ {
			mutate(r, &k, st)
			view := k.heldView(ln)
			if got, want := st.Decide(PolPos, true), view.Decide(g); got != want {
				t.Fatalf("trial %d step %d: overlay Decide=%v, clone view says %v (guard %s, know %s, ln %v)",
					trial, step, got, want, g.Key(), k.String(), ln)
			}
			// With localClean false the overlay must not apply.
			if got, want := st.Decide(PolPos, false), k.Decide(g); got != want {
				t.Fatalf("trial %d step %d: plain Decide=%v, knowledge says %v", trial, step, got, want)
			}
		}
	}
}

// TestResidualAndTargets checks, at random points of a mutation
// sequence, what a decision reads off the program besides its verdict,
// against Knowledge.Reduce of the source guard: the residual guard
// (Residual), its ¬ literals (ResidualNotYet), and the symbols still
// awaited (Awaited, plain and with the consensus-local holds).
func TestResidualAndTargets(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		pos, neg := randFormula(r), randFormula(r)
		ln := map[string]algebra.Symbol{}
		for i := r.Intn(3); i > 0; i-- {
			s := randSym(r)
			ln[s.Key()] = s
		}
		p := Compile(GuardInput{Guard: pos, LocalNeg: ln}, GuardInput{Guard: neg})
		var k oracle
		st := p.NewState()
		for step := 0; step < 15; step++ {
			mutate(r, &k, st)
			for pol, g := range []temporal.Formula{pos, neg} {
				reduced := k.Reduce(g)
				if got, want := st.Residual(pol).Key(), reduced.Key(); got != want {
					t.Fatalf("trial %d step %d: Residual(pol %d)=%s, Reduce says %s (guard %s, know %s)",
						trial, step, pol, got, want, g.Key(), k.String())
				}
				if got, want := idKeys(p, st.ResidualNotYet(pol, nil)), notYetKeys(reduced); got != want {
					t.Fatalf("trial %d step %d: ResidualNotYet(pol %d)=%s, residual %s has %s",
						trial, step, pol, got, reduced.Key(), want)
				}
				if got, want := idKeys(p, st.Awaited(pol, st.DecideView(pol, false), nil)), treeUnresolved(&k.Knowledge, reduced); got != want {
					t.Fatalf("trial %d step %d: Awaited(pol %d)=%s, tree says %s (guard %s, know %s)",
						trial, step, pol, got, want, g.Key(), k.String())
				}
			}
			if got, want := idKeys(p, st.Awaited(PolPos, st.DecideView(PolPos, true), nil)), treeUnresolved(k.heldView(ln), k.Reduce(pos)); got != want {
				t.Fatalf("trial %d step %d: overlay Awaited=%s, held view says %s (guard %s, know %s, ln %v)",
					trial, step, got, want, pos.Key(), k.String(), ln)
			}
		}
	}
}

// idKeys renders ids as their sorted, deduplicated keys.
func idKeys(p *Prog, ids []symtab.ID) string {
	set := map[string]bool{}
	for _, id := range ids {
		set[p.Table().Key(id)] = true
	}
	return sortedSet(set)
}

func sortedSet(set map[string]bool) string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// notYetKeys lists the symbols of a formula's ¬ literals.
func notYetKeys(f temporal.Formula) string {
	set := map[string]bool{}
	for _, prod := range f.Products() {
		for _, l := range prod.Lits() {
			if l.Kind() == temporal.LitNotYet {
				set[l.Sym().Key()] = true
			}
		}
	}
	return sortedSet(set)
}

// treeUnresolved is the tree's inquiry-target rule: in every product
// the knowledge does not falsify at decision time, the unknown or held
// members of each literal it leaves unknown.
func treeUnresolved(k *temporal.Knowledge, g temporal.Formula) string {
	set := map[string]bool{}
	for _, prod := range g.Products() {
		dead := false
		for _, l := range prod.Lits() {
			if k.DecideLit(l) == temporal.False {
				dead = true
			}
		}
		if dead {
			continue
		}
		for _, l := range prod.Lits() {
			if k.DecideLit(l) != temporal.Unknown {
				continue
			}
			for _, s := range l.Syms() {
				if st := k.Status(s); st == temporal.StatusUnknown || st == temporal.StatusHeld {
					set[s.Key()] = true
				}
			}
		}
	}
	return sortedSet(set)
}

// TestWideGuardSpill exercises the multi-word (>64 literals) path.
func TestWideGuardSpill(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	// 90 distinct □ literals over 90 symbols: forces 2 words.
	var prods []temporal.Formula
	var syms []algebra.Symbol
	for i := 0; i < 90; i++ {
		s := algebra.Symbol{Name: "w" + string(rune('A'+i/26)) + string(rune('a'+i%26))}
		syms = append(syms, s)
		prods = append(prods, temporal.Lit(temporal.Occurred(s)))
	}
	// One wide conjunction plus the 90 singletons as alternatives.
	var wide []temporal.Formula
	for _, s := range syms {
		wide = append(wide, temporal.Lit(temporal.Occurred(s)))
	}
	g := temporal.And(wide...)
	p := Compile(GuardInput{Guard: g}, GuardInput{Guard: temporal.TrueF()})
	if len(p.lits) <= 64 {
		t.Fatalf("expected >64 literal slots, got %d", len(p.lits))
	}
	st := p.NewState()
	var k temporal.Knowledge
	perm := r.Perm(len(syms))
	for i, idx := range perm {
		if got, want := st.Decide(PolPos, false), k.Decide(g); got != want {
			t.Fatalf("wide step %d: Decide=%v, knowledge says %v", i, got, want)
		}
		k.Observe(syms[idx], int64(i+1))
		st.Observe(syms[idx], int64(i+1))
	}
	if v := st.Decide(PolPos, false); v != temporal.True {
		t.Fatalf("all observed: Decide=%v", v)
	}
}

// MarkImpossible is MarkImpossibleID for a symbol given by name.
func (s *State) MarkImpossible(sym algebra.Symbol) bool { return s.MarkImpossibleID(s.lookup(sym)) }

// Hold is HoldID for a symbol given by name.
func (s *State) Hold(sym algebra.Symbol) bool { return s.HoldID(s.lookup(sym)) }

// Unhold is UnholdID for a symbol given by name.
func (s *State) Unhold(sym algebra.Symbol) bool { return s.UnholdID(s.lookup(sym)) }

// Promise is PromiseID for a symbol given by name.
func (s *State) Promise(sym algebra.Symbol) { s.PromiseID(s.lookup(sym)) }

// CondPromise is CondPromiseID for a symbol given by name.
func (s *State) CondPromise(sym algebra.Symbol) { s.CondPromiseID(s.lookup(sym)) }

// ClearCond is ClearCondID for a symbol given by name.
func (s *State) ClearCond(sym algebra.Symbol) { s.ClearCondID(s.lookup(sym)) }

// PromiseID mirrors Knowledge.Promise: a binding ◇ promise, never
// weakening occurrence facts; the complement becomes impossible.
func (s *State) PromiseID(id symtab.ID) {
	if !s.Has(id) {
		return
	}
	if st := s.cells[id].st; st == temporal.StatusOccurred || st == temporal.StatusImpossible {
		return
	}
	s.cells[id].st = temporal.StatusPromised
	s.recompute(id)
	s.cells[id^1].st = temporal.StatusImpossible
	s.recompute(id ^ 1)
}

// ClearCondID mirrors Knowledge.ClearCond.
func (s *State) ClearCondID(id symtab.ID) {
	if !s.Has(id) || s.cells[id].st != temporal.StatusCondPromised {
		return
	}
	s.cells[id].st = temporal.StatusUnknown
	s.recompute(id)
}
