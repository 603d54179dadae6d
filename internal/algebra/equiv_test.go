package algebra

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNullable(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"T", true},
		{"0", false},
		{"e", false},
		{"~e", false},
		{"e + T", true}, // normalizes to T
		{"e . f", false},
		{"e | f", false},
	}
	for _, c := range cases {
		if got := Nullable(MustParse(c.src)); got != c.want {
			t.Errorf("Nullable(%q): got %v want %v", c.src, got, c.want)
		}
	}
	// Nullable must agree with λ-satisfaction on random expressions.
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		e := genExpr(r, []string{"e", "f", "g"}, 3)
		if Nullable(e) != (Trace{}).Satisfies(e) {
			t.Fatalf("Nullable(%q) disagrees with λ ⊨", e.Key())
		}
	}
}

func TestSatisfiable(t *testing.T) {
	sat := []string{"T", "e", "~e", "e . f", "e + f", "e | f", "~e + ~f + e . f"}
	for _, src := range sat {
		if !Satisfiable(MustParse(src)) {
			t.Errorf("%q must be satisfiable", src)
		}
	}
	unsat := []*Expr{
		Zero(),
		Conj(Seq(E("e"), E("f")), Seq(E("f"), E("e"))), // both orders
	}
	for _, e := range unsat {
		if Satisfiable(e) {
			t.Errorf("%q must be unsatisfiable", e.Key())
		}
	}
	// Agreement with universe enumeration on random expressions.
	r := rand.New(rand.NewSource(23))
	names := []string{"e", "f"}
	a := NewAlphabet()
	for _, n := range names {
		a.AddPair(Sym(n))
	}
	universe := Universe(a)
	for i := 0; i < 200; i++ {
		e := genExpr(r, names, 3)
		want := false
		for _, u := range universe {
			if u.Satisfies(e) {
				want = true
				break
			}
		}
		if got := Satisfiable(e); got != want {
			t.Fatalf("Satisfiable(%q): got %v want %v", e.Key(), got, want)
		}
	}
}

func TestEquivalentKnownPairs(t *testing.T) {
	equal := [][2]string{
		{"e + f", "f + e"},
		{"e . T", "e"},
		{"(e + f) . g", "e . g + f . g"},
		{"e | e", "e"},
		{"~e + ~f + e . f", "~f + ~e + e . f"},
	}
	for _, p := range equal {
		if !Equivalent(MustParse(p[0]), MustParse(p[1])) {
			t.Errorf("%q must equal %q", p[0], p[1])
		}
	}
	diff := [][2]string{
		{"e", "f"},
		{"e . f", "f . e"},
		{"e + f", "e | f"},
		{"e", "~e"},
		{"e + ~e", "T"}, // λ distinguishes them
		{"~e + f", "~e + ~f + e . f"},
	}
	for _, p := range diff {
		if Equivalent(MustParse(p[0]), MustParse(p[1])) {
			t.Errorf("%q must differ from %q", p[0], p[1])
		}
	}
}

// TestEquivalentAgainstUniverse: the symbolic decision procedure agrees
// with exhaustive enumeration on random expression pairs.
func TestEquivalentAgainstUniverse(t *testing.T) {
	names := []string{"e", "f"}
	a := NewAlphabet()
	for _, n := range names {
		a.AddPair(Sym(n))
	}
	universe := Universe(a)
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 200; i++ {
		x := genExpr(r, names, 3)
		y := genExpr(r, names, 3)
		want := EquivalentOver(x, y, universe)
		if got := Equivalent(x, y); got != want {
			t.Fatalf("Equivalent(%q, %q): got %v want %v", x.Key(), y.Key(), got, want)
		}
	}
}

// TestEquivalentQuick uses testing/quick over seeded generators: every
// expression is equivalent to its CNF, and residuating two equivalent
// expressions by the same symbol preserves equivalence.
func TestEquivalentQuick(t *testing.T) {
	names := []string{"e", "f", "g"}
	cfg := &quick.Config{
		MaxCount: 150,
		Rand:     rand.New(rand.NewSource(77)),
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(genExpr(r, names, 3))
		},
	}
	prop := func(e *Expr) bool {
		if !Equivalent(e, CNF(e)) {
			return false
		}
		for _, n := range names {
			if !Equivalent(Residuate(e, Sym(n)), Residuate(CNF(e), Sym(n))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// EquivalentOver reports whether two expressions are satisfied by
// exactly the same traces of the universe.
func EquivalentOver(a, b *Expr, universe []Trace) bool {
	for _, u := range universe {
		if u.Satisfies(a) != u.Satisfies(b) {
			return false
		}
	}
	return true
}
