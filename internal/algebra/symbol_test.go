package algebra

import (
	"fmt"
	"testing"
)

func TestSymbolComplement(t *testing.T) {
	e := Sym("e")
	if !e.Complement().Bar {
		t.Fatal("complement of e must be barred")
	}
	if got := e.Complement().Complement(); !got.Equal(e) {
		t.Fatalf("double complement: got %v, want %v", got, e)
	}
	if e.Complement().Key() != "~e" {
		t.Fatalf("key of ē: got %q", e.Complement().Key())
	}
}

func TestSymbolComplementDoesNotAliasParams(t *testing.T) {
	s := SymP("e", Var("x"), Const("c"))
	c := s.Complement()
	c.Params[0] = Const("mutated")
	if s.Params[0] != Var("x") {
		t.Fatal("Complement must deep-copy params")
	}
}

func TestSymbolSameEvent(t *testing.T) {
	e := Sym("e")
	if !e.SameEvent(e.Complement()) {
		t.Fatal("e and ē are the same event")
	}
	if e.SameEvent(Sym("f")) {
		t.Fatal("e and f are different events")
	}
	if Sym("e").SameEvent(SymP("e", Const("1"))) {
		t.Fatal("e and e[1] are different events")
	}
}

func TestSymbolGround(t *testing.T) {
	if !Sym("e").Ground() {
		t.Fatal("plain symbol is ground")
	}
	if !SymP("e", Const("42")).Ground() {
		t.Fatal("constant-parametrized symbol is ground")
	}
	if SymP("e", Var("x")).Ground() {
		t.Fatal("variable-parametrized symbol is not ground")
	}
}

func TestSymbolValidate(t *testing.T) {
	if err := (Symbol{}).Validate(); err == nil {
		t.Fatal("empty symbol must not validate")
	}
	if err := SymP("e", Term{}).Validate(); err == nil {
		t.Fatal("empty parameter must not validate")
	}
	if err := Sym("e").Validate(); err != nil {
		t.Fatalf("plain symbol: %v", err)
	}
}

func TestSymbolKeyParams(t *testing.T) {
	s := SymP("book", Var("cid"), Const("ord9"))
	if got, want := s.Key(), "book[?cid,ord9]"; got != want {
		t.Fatalf("key: got %q want %q", got, want)
	}
	if got, want := s.Complement().Key(), "~book[?cid,ord9]"; got != want {
		t.Fatalf("complement key: got %q want %q", got, want)
	}
}

func TestAlphabetPairsAndWithout(t *testing.T) {
	a := NewAlphabet()
	a.AddPair(Sym("e"))
	a.AddPair(Sym("f"))
	if len(a) != 4 {
		t.Fatalf("alphabet size: got %d want 4", len(a))
	}
	if !a.HasEvent(Sym("e").Complement()) {
		t.Fatal("alphabet must contain ē's event")
	}
	b := a.WithoutEvent(Sym("e"))
	if len(b) != 2 || b.Has(Sym("e")) || b.Has(Sym("e").Complement()) {
		t.Fatalf("WithoutEvent: got %v", b.Symbols())
	}
	if len(a) != 4 {
		t.Fatal("WithoutEvent must not mutate the receiver")
	}
}

func TestAlphabetIntersects(t *testing.T) {
	a := NewAlphabet(Sym("e"), Sym("f"))
	b := NewAlphabet(Sym("g"))
	if a.Intersects(b) {
		t.Fatal("disjoint alphabets must not intersect")
	}
	b.Add(Sym("f"))
	if !a.Intersects(b) {
		t.Fatal("alphabets sharing f must intersect")
	}
}

func TestAlphabetBasesSorted(t *testing.T) {
	a := NewAlphabet(Sym("f").Complement(), Sym("e"), Sym("f"))
	bases := a.Bases()
	if len(bases) != 2 || bases[0].Key() != "e" || bases[1].Key() != "f" {
		t.Fatalf("bases: got %v", bases)
	}
}

// Validate reports a descriptive error for malformed symbols.
func (s Symbol) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("algebra: symbol with empty name")
	}
	for _, t := range s.Params {
		if t.Value == "" {
			return fmt.Errorf("algebra: symbol %s has an empty parameter", s.Name)
		}
	}
	return nil
}
