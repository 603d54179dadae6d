package gprog

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/temporal"
)

// The spill path: guards whose literal universe exceeds one 64-bit
// word, so every product mask spans multiple words and the
// flattened-prods iteration actually walks word arrays.  The regular
// suite never leaves word zero (six names, ≤48 literals); everything
// here pins Words() > 1 and re-proves the tree-oracle equivalences on
// the multi-word representation.

const wideN = 80

func wideName(i int) string { return fmt.Sprintf("g%03d", i) }

func wideSym(r *rand.Rand) algebra.Symbol {
	s := algebra.Symbol{Name: wideName(r.Intn(wideN))}
	if r.Intn(2) == 0 {
		s = s.Complement()
	}
	return s
}

// wideOccSym draws □-literal symbols from the low half of the name
// pool, either polarity.
func wideOccSym(r *rand.Rand) algebra.Symbol {
	s := algebra.Symbol{Name: wideName(r.Intn(wideN / 2))}
	if r.Intn(2) == 0 {
		s = s.Complement()
	}
	return s
}

// wideNotSym draws ¬-literal symbols from the high half, base polarity
// only.
func wideNotSym(r *rand.Rand) algebra.Symbol {
	return algebra.Symbol{Name: wideName(wideN/2 + r.Intn(wideN/2))}
}

// wideFormula guarantees a spilled literal universe: a deterministic
// backbone interning 80 literals (filling two words) plus a random
// sum-of-products.  The canonical form closes sums under consensus
// (temporal/simplify.go), which explodes when complementary literal
// pairs — ¬s/□s, ¬s/◇s, ¬s/¬s̄, ◇s/◇s̄ — chain across many products;
// real guards are a handful of products so synthesis never gets
// there, but an 80-product formula would.  The generator therefore
// keeps the literal kinds on disjoint symbol pools (□ on the low
// half, ¬ on the high half at base polarity, ◇ always over two
// names) so no complementary pair exists and the closure adds
// nothing.
func wideFormula(r *rand.Rand) temporal.Formula {
	prods := make([]temporal.Formula, 0, wideN/2+24)
	for i := 0; i < wideN/2; i++ {
		prods = append(prods, temporal.And(
			temporal.Lit(temporal.Occurred(algebra.Symbol{Name: wideName(i)})),
			temporal.Lit(temporal.NotYet(algebra.Symbol{Name: wideName(wideN/2 + i)})),
		))
	}
	nprod := 8 + r.Intn(16)
	for i := 0; i < nprod; i++ {
		nlit := 1 + r.Intn(4)
		lits := make([]temporal.Formula, 0, nlit)
		for j := 0; j < nlit; j++ {
			switch r.Intn(3) {
			case 0:
				lits = append(lits, temporal.Lit(temporal.Occurred(wideOccSym(r))))
			case 1:
				lits = append(lits, temporal.Lit(temporal.NotYet(wideNotSym(r))))
			default:
				a := r.Intn(wideN)
				b := r.Intn(wideN - 1)
				if b >= a {
					b++
				}
				sa := algebra.Symbol{Name: wideName(a)}
				sb := algebra.Symbol{Name: wideName(b)}
				if r.Intn(2) == 0 {
					sa = sa.Complement()
				}
				if r.Intn(2) == 0 {
					sb = sb.Complement()
				}
				lits = append(lits, temporal.Lit(temporal.Eventually(sa, sb)))
			}
		}
		prods = append(prods, temporal.And(lits...))
	}
	return temporal.Or(prods...)
}

func requireSpilled(t *testing.T, p *Prog) {
	t.Helper()
	if len(p.lits) <= 64 {
		t.Fatalf("universe did not spill: %d literals", len(p.lits))
	}
	if p.words < 2 {
		t.Fatalf("%d literals but Words()=%d", len(p.lits), p.words)
	}
}

// wideMutate is the mutate() of the regular suite over the spilled
// universe, applied to the oracle and any number of program states in
// lockstep.
func wideMutate(r *rand.Rand, k *temporal.Knowledge, sts ...*State) string {
	s := wideSym(r)
	switch r.Intn(7) {
	case 0:
		t := int64(r.Intn(50))
		k.Observe(s, t)
		for _, st := range sts {
			st.Observe(s, t)
		}
		return "observe " + s.Key()
	case 1:
		k.Hold(s)
		for _, st := range sts {
			st.Hold(s)
		}
		return "hold " + s.Key()
	case 2:
		k.Unhold(s)
		for _, st := range sts {
			st.Unhold(s)
		}
		return "unhold " + s.Key()
	case 3:
		k.MarkImpossible(s)
		for _, st := range sts {
			st.MarkImpossible(s)
		}
		return "impossible " + s.Key()
	case 4:
		k.Promise(s)
		for _, st := range sts {
			st.Promise(s)
		}
		return "promise " + s.Key()
	case 5:
		k.CondPromise(s)
		for _, st := range sts {
			st.CondPromise(s)
		}
		return "condpromise " + s.Key()
	default:
		k.ClearCond(s)
		for _, st := range sts {
			st.ClearCond(s)
		}
		return "clearcond " + s.Key()
	}
}

// TestSpillMirrorsKnowledge is TestMirrorsKnowledge on multi-word
// programs: random mutation sequences, bit-identical Decide/Eval
// verdicts against the tree oracle after every step.
func TestSpillMirrorsKnowledge(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	trials := 60
	if testing.Short() {
		trials = 12
	}
	for trial := 0; trial < trials; trial++ {
		pos, neg := wideFormula(r), wideFormula(r)
		p := Compile(GuardInput{Guard: pos}, GuardInput{Guard: neg})
		requireSpilled(t, p)
		st := p.NewState()
		var k temporal.Knowledge
		var log []string
		for step := 0; step < 60; step++ {
			log = append(log, wideMutate(r, &k, st))
			for pol, g := range []temporal.Formula{pos, neg} {
				if got, want := st.Decide(pol, false), k.Decide(g); got != want {
					t.Fatalf("trial %d step %d: Decide(pol %d) = %v, knowledge says %v\nops %v",
						trial, step, pol, got, want, log)
				}
				if got, want := st.Eval(pol), k.Eval(g); got != want {
					t.Fatalf("trial %d step %d: Eval(pol %d) = %v, knowledge says %v\nops %v",
						trial, step, pol, got, want, log)
				}
			}
		}
	}
}

// TestSpillEvalAsOf replays random maximal traces over the full
// 80-event universe and checks EvalAsOf at every position against the
// formula's EvalAt — the trace-time view the model checker's replay
// layer (internal/mc) relies on, here exercised across word
// boundaries.
func TestSpillEvalAsOf(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	trials := 20
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		pos, neg := wideFormula(r), wideFormula(r)
		p := Compile(GuardInput{Guard: pos}, GuardInput{Guard: neg})
		requireSpilled(t, p)
		st := p.NewState()

		u := make(algebra.Trace, 0, wideN)
		for _, i := range r.Perm(wideN) {
			s := algebra.Symbol{Name: wideName(i)}
			if r.Intn(2) == 0 {
				s = s.Complement()
			}
			u = append(u, s)
		}
		for i, s := range u {
			st.Observe(s, int64(i+1))
		}
		for i := range u {
			for pol, g := range []temporal.Formula{pos, neg} {
				got := st.EvalAsOf(pol, int64(i+1))
				if got == temporal.Unknown {
					t.Fatalf("trial %d pos %d pol %d: EvalAsOf unknown on a maximal trace", trial, i, pol)
				}
				if want := g.EvalAt(u, i); (got == temporal.True) != want {
					t.Fatalf("trial %d pos %d pol %d: EvalAsOf=%v, EvalAt=%v", trial, i, pol, got, want)
				}
			}
		}
	}
}

// TestSpillProductLitsRoundTrip recompiles the literal lists read back
// from a spilled program and drives both programs in lockstep: the
// read-back view (what internal/mc lowers into its guard automata)
// must describe exactly the compiled masks.
func TestSpillProductLitsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		pos, neg := wideFormula(r), wideFormula(r)
		p := Compile(GuardInput{Guard: pos}, GuardInput{Guard: neg})
		requireSpilled(t, p)

		rebuild := func(pol int) temporal.Formula {
			var prods []temporal.Formula
			for _, lits := range p.ProductLits(pol) {
				fs := make([]temporal.Formula, 0, len(lits))
				for _, l := range lits {
					fs = append(fs, temporal.Lit(l))
				}
				prods = append(prods, temporal.And(fs...))
			}
			if len(prods) == 0 {
				return temporal.FalseF()
			}
			return temporal.Or(prods...)
		}
		q := Compile(GuardInput{Guard: rebuild(PolPos)}, GuardInput{Guard: rebuild(PolNeg)})
		sp, sq := p.NewState(), q.NewState()
		var log []string
		var k temporal.Knowledge
		for step := 0; step < 40; step++ {
			log = append(log, wideMutate(r, &k, sp, sq))
			for pol := 0; pol < 2; pol++ {
				if got, want := sq.Eval(pol), sp.Eval(pol); got != want {
					t.Fatalf("trial %d step %d pol %d: round-tripped Eval=%v, original=%v\nops %v",
						trial, step, pol, got, want, log)
				}
				if got, want := sq.Decide(pol, false), sp.Decide(pol, false); got != want {
					t.Fatalf("trial %d step %d pol %d: round-tripped Decide=%v, original=%v\nops %v",
						trial, step, pol, got, want, log)
				}
			}
		}
	}
}
