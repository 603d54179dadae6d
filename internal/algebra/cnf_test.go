package algebra

import (
	"math/rand"
	"testing"
)

func TestCNFShape(t *testing.T) {
	cases := []string{
		"(e + f) . g",
		"(e | f) . g",
		"a . (b + c) . d",
		"a . (b | c + d)",
		"((a + b) . c) . (d + e)",
		"~e + ~f + e . f",
	}
	for _, src := range cases {
		e := MustParse(src)
		c := CNF(e)
		if !IsCNF(c) {
			t.Errorf("CNF(%q) = %q is not in CNF", src, c.Key())
		}
	}
}

func TestCNFDistributesChoice(t *testing.T) {
	got := CNF(MustParse("(e + f) . g"))
	want := MustParse("e . g + f . g")
	if !got.Equal(want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestCNFDistributesConj(t *testing.T) {
	got := CNF(MustParse("(e | f) . g"))
	want := Conj(Seq(E("e"), E("g")), Seq(E("f"), E("g")))
	if !got.Equal(want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

// TestCNFPreservesSemantics validates the distribution laws the paper
// asserts for · over + and over | (§3.2) on exhaustive small universes
// with randomized expressions.
func TestCNFPreservesSemantics(t *testing.T) {
	names := []string{"e", "f", "g"}
	a := NewAlphabet()
	for _, n := range names {
		a.AddPair(Sym(n))
	}
	universe := Universe(a)
	r := rand.New(rand.NewSource(1996))
	for i := 0; i < 400; i++ {
		e := genExpr(r, names, 3)
		c := CNF(e)
		if !IsCNF(c) {
			t.Fatalf("iteration %d: CNF(%q) = %q not in CNF", i, e.Key(), c.Key())
		}
		if !EquivalentOver(e, c, universe) {
			t.Fatalf("iteration %d: CNF changed semantics: %q vs %q", i, e.Key(), c.Key())
		}
	}
}

func TestCNFIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	names := []string{"e", "f", "g"}
	for i := 0; i < 200; i++ {
		c := CNF(genExpr(r, names, 3))
		if again := CNF(c); !again.Equal(c) {
			t.Fatalf("CNF not idempotent: %q → %q", c.Key(), again.Key())
		}
	}
}

// IsCNF reports whether no + or | occurs under a · in the expression.
func IsCNF(e *Expr) bool {
	switch e.Kind() {
	case KZero, KTop, KAtom:
		return true
	case KChoice, KConj:
		for _, s := range e.Subs() {
			if !IsCNF(s) {
				return false
			}
		}
		return true
	case KSeq:
		for _, s := range e.Subs() {
			if s.Kind() != KAtom {
				return false
			}
		}
		return true
	}
	return false
}
