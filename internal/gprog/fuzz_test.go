package gprog

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/temporal"
)

// FuzzGuardProgram derives a guard pair and an announcement/hold order
// from the fuzz input and checks that the compiled program and the
// tree-walking evaluator return identical three-valued verdicts after
// every step, plain and with the consensus-local overlay.
func FuzzGuardProgram(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23, 0x34, 0x45, 0x56, 0x67, 0x78})
	f.Add([]byte("guards-and-announcements"))
	f.Add([]byte{0xff, 0x00, 0xaa, 0x55, 0x11, 0x22, 0x33, 0x44, 0x99, 0xde, 0xad, 0xbe, 0xef})
	f.Fuzz(func(t *testing.T, data []byte) {
		fz := fuzzReader{data: data}
		pos := fz.formula()
		neg := fz.formula()
		ln := map[string]algebra.Symbol{}
		for i := fz.byte() % 3; i > 0; i-- {
			s := fz.sym()
			ln[s.Key()] = s
		}
		p := Compile(GuardInput{Guard: pos, LocalNeg: ln}, GuardInput{Guard: neg})
		st := p.NewState()
		var k oracle
		now := int64(0)
		for step := 0; step < 48 && fz.more(); step++ {
			s := fz.sym()
			switch fz.byte() % 6 {
			case 0, 1: // announcements dominate real traffic
				if st2 := k.Status(s); st2 == temporal.StatusUnknown || st2 == temporal.StatusHeld {
					now++
					t := now
					k.do(func(k *temporal.Knowledge) { k.Observe(s, t) })
					st.Observe(s, now)
				}
			case 2:
				k.do(func(k *temporal.Knowledge) { k.Hold(s) })
				st.Hold(s)
			case 3:
				k.do(func(k *temporal.Knowledge) { k.Unhold(s) })
				st.Unhold(s)
			case 4:
				if k.Status(s) == temporal.StatusUnknown {
					k.do(func(k *temporal.Knowledge) { k.MarkImpossible(s) })
					st.MarkImpossible(s)
				}
			case 5:
				k.do(func(k *temporal.Knowledge) { k.Promise(s) })
				st.Promise(s)
			}
			for pol, g := range []temporal.Formula{pos, neg} {
				if got, want := st.Decide(pol, false), k.Decide(g); got != want {
					t.Fatalf("step %d pol %d: Decide=%v knowledge=%v (guard %s, know %s)",
						step, pol, got, want, g.Key(), k.String())
				}
				if got, want := st.Eval(pol), k.Eval(g); got != want {
					t.Fatalf("step %d pol %d: Eval=%v knowledge=%v (guard %s, know %s)",
						step, pol, got, want, g.Key(), k.String())
				}
			}
			// Consensus-local overlay vs the held view.
			view := k.heldView(ln)
			if got, want := st.Decide(PolPos, true), view.Decide(pos); got != want {
				t.Fatalf("step %d: overlay Decide=%v, clone view=%v (guard %s, know %s)",
					step, got, want, pos.Key(), k.String())
			}
		}
	})
}

// fuzzReader decodes structured choices from the fuzz input, ending in
// zeros once exhausted.
type fuzzReader struct {
	data []byte
	i    int
}

func (f *fuzzReader) more() bool { return f.i < len(f.data) }

func (f *fuzzReader) byte() byte {
	if f.i >= len(f.data) {
		return 0
	}
	b := f.data[f.i]
	f.i++
	return b
}

func (f *fuzzReader) sym() algebra.Symbol {
	b := f.byte()
	s := algebra.Symbol{Name: testNames[int(b>>1)%len(testNames)]}
	if b&1 == 1 {
		s = s.Complement()
	}
	return s
}

func (f *fuzzReader) formula() temporal.Formula {
	nprod := 1 + int(f.byte())%4
	prods := make([]temporal.Formula, 0, nprod)
	for i := 0; i < nprod; i++ {
		nlit := 1 + int(f.byte())%4
		lits := make([]temporal.Formula, 0, nlit)
		for j := 0; j < nlit; j++ {
			lits = append(lits, temporal.Lit(f.lit()))
		}
		prods = append(prods, temporal.And(lits...))
	}
	return temporal.Or(prods...)
}

func (f *fuzzReader) lit() temporal.Literal {
	switch f.byte() % 3 {
	case 0:
		return temporal.Occurred(f.sym())
	case 1:
		return temporal.NotYet(f.sym())
	default:
		n := 1 + int(f.byte())%3
		syms := make([]algebra.Symbol, n)
		for i := range syms {
			syms[i] = f.sym()
		}
		return temporal.Eventually(syms...)
	}
}
