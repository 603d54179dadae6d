package dep

import (
	"testing"

	"repro/internal/algebra"
)

func sym(k string) algebra.Symbol {
	s, err := algebra.ParseSymbol(k)
	if err != nil {
		panic(err)
	}
	return s
}

// checkSemantics verifies, over every maximal trace of the pattern's
// alphabet, that the pattern accepts exactly the traces the predicate
// describes.
func checkSemantics(t *testing.T, name string, d *algebra.Expr, ok func(u algebra.Trace) bool) {
	t.Helper()
	for _, u := range algebra.MaximalUniverse(d.Gamma()) {
		if got, want := u.Satisfies(d), ok(u); got != want {
			t.Errorf("%s: trace %v: got %v want %v", name, u, got, want)
		}
	}
}

func TestBefore(t *testing.T) {
	e, f := sym("e"), sym("f")
	checkSemantics(t, "before", Before(e, f), func(u algebra.Trace) bool {
		ie, fi := u.Index(e), u.Index(f)
		if ie < 0 || fi < 0 {
			return true // one of them never occurs
		}
		return ie < fi
	})
}

func TestImplies(t *testing.T) {
	e, f := sym("e"), sym("f")
	checkSemantics(t, "implies", Implies(e, f), func(u algebra.Trace) bool {
		return !u.Contains(e) || u.Contains(f)
	})
}

func TestEnables(t *testing.T) {
	e, f := sym("e"), sym("f")
	checkSemantics(t, "enables", Enables(f, e), func(u algebra.Trace) bool {
		if !u.Contains(e) {
			return true
		}
		fi := u.Index(f)
		return fi >= 0 && fi < u.Index(e)
	})
}

func TestCompensate(t *testing.T) {
	c, s, k := sym("c"), sym("s"), sym("k")
	checkSemantics(t, "compensate", Compensate(c, s, k), func(u algebra.Trace) bool {
		return !u.Contains(c) || u.Contains(s) || u.Contains(k)
	})
}

func TestOnlyIfNeverAndExclusive(t *testing.T) {
	e, f := sym("e"), sym("f")
	pred := func(u algebra.Trace) bool { return !(u.Contains(e) && u.Contains(f)) }
	checkSemantics(t, "onlyIfNever", OnlyIfNever(e, f), pred)
	checkSemantics(t, "exclusive", Exclusive(e, f), pred)
}

func TestCoupled(t *testing.T) {
	e, f := sym("e"), sym("f")
	deps := Coupled(e, f)
	if len(deps) != 2 {
		t.Fatalf("coupled: %d deps", len(deps))
	}
	both := algebra.Conj(deps[0], deps[1])
	checkSemantics(t, "coupled", both, func(u algebra.Trace) bool {
		return u.Contains(e) == u.Contains(f)
	})
}

func TestChainAndForkJoin(t *testing.T) {
	a, b, c := sym("a"), sym("b"), sym("c")
	chain := Chain(a, b, c)
	if len(chain) != 2 {
		t.Fatalf("chain deps: %d", len(chain))
	}
	if !chain[0].Equal(Before(a, b)) || !chain[1].Equal(Before(b, c)) {
		t.Fatal("chain must order successive pairs")
	}
}

func TestMutexPairMatchesPaper(t *testing.T) {
	got := MutexPair(sym("b1[?x]"), sym("e1[?x]"), sym("b2[?y]"))
	want := algebra.MustParse("b2[?y] . b1[?x] + ~e1[?x] + ~b2[?y] + e1[?x] . b2[?y]")
	if !got.Equal(want) {
		t.Fatalf("mutex: got %v want %v", got, want)
	}
}

func TestTravelWorkflow(t *testing.T) {
	w := Travel(sym("s_buy"), sym("c_buy"), sym("s_book"), sym("c_book"), sym("s_cancel"), false)
	if len(w.Deps) != 3 || w.Name(1) != "order" {
		t.Fatalf("travel: %d deps, name %q", len(w.Deps), w.Name(1))
	}
	if !w.Deps[0].Equal(algebra.MustParse("~s_buy + s_book")) {
		t.Fatalf("dep1: %v", w.Deps[0])
	}
	if !w.Deps[1].Equal(algebra.MustParse("~c_buy + c_book . c_buy")) {
		t.Fatalf("dep2: %v", w.Deps[1])
	}
	strengthened := Travel(sym("s_buy"), sym("c_buy"), sym("s_book"), sym("c_book"), sym("s_cancel"), true)
	if len(strengthened.Deps) != 4 {
		t.Fatalf("strengthened: %d deps", len(strengthened.Deps))
	}
	if !strengthened.Deps[3].Equal(algebra.MustParse("~s_cancel + ~c_buy")) {
		t.Fatalf("dep4: %v", strengthened.Deps[3])
	}
}
