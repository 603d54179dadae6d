package algebra

import "testing"

func TestConstructorIdentities(t *testing.T) {
	e, f := E("e"), E("f")
	cases := []struct {
		name string
		got  *Expr
		want *Expr
	}{
		{"choice identity", Choice(e, Zero()), e},
		{"choice absorbing top", Choice(e, Top()), Top()},
		{"choice dedupe", Choice(e, e), e},
		{"choice flatten", Choice(Choice(e, f), e), Choice(e, f)},
		{"conj identity", Conj(e, Top()), e},
		{"conj absorbing zero", Conj(e, Zero()), Zero()},
		{"conj dedupe", Conj(e, e), e},
		{"conj contradiction", Conj(e, NotE("e")), Zero()},
		{"seq zero absorbing", Seq(e, Zero(), f), Zero()},
		{"seq top unit", Seq(Top(), e, Top()), e},
		{"seq flatten", Seq(Seq(e, f)), Seq(e, f)},
		{"seq repeat unsat", Seq(e, f, e), Zero()},
		{"seq complement unsat", Seq(e, NotE("e")), Zero()},
		{"empty choice", Choice(), Zero()},
		{"empty conj", Conj(), Top()},
		{"empty seq", Seq(), Top()},
	}
	for _, c := range cases {
		if !c.got.Equal(c.want) {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestChoiceConjCommutative(t *testing.T) {
	e, f, g := E("e"), E("f"), E("g")
	if !Choice(e, f, g).Equal(Choice(g, e, f)) {
		t.Error("choice must canonicalize order")
	}
	if !Conj(e, f, g).Equal(Conj(g, e, f)) {
		t.Error("conj must canonicalize order")
	}
	if Seq(e, f).Equal(Seq(f, e)) {
		t.Error("seq must preserve order")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	exprs := []*Expr{
		Zero(),
		Top(),
		E("e"),
		NotE("e"),
		Seq(E("e"), E("f")),
		Choice(NotE("e"), E("f")),
		Choice(NotE("e"), NotE("f"), Seq(E("e"), E("f"))),
		Conj(Choice(E("e"), E("f")), E("g")),
		Seq(Choice(E("a"), E("b")), E("c")),
		At(SymP("enter", Var("x"))),
		Choice(At(SymP("b", Var("y")).Complement()), Seq(At(SymP("e1", Var("x"))), At(SymP("b2", Var("y"))))),
	}
	for _, e := range exprs {
		back, err := Parse(e.Key())
		if err != nil {
			t.Errorf("re-parsing %q: %v", e.Key(), err)
			continue
		}
		if !back.Equal(e) {
			t.Errorf("round trip of %q produced %q", e.Key(), back.Key())
		}
	}
}

func TestGamma(t *testing.T) {
	// D_< = ē + f̄ + e·f  mentions e,f (and complements): Γ has 4 symbols.
	d := MustParse("~e + ~f + e . f")
	g := d.Gamma()
	if len(g) != 4 {
		t.Fatalf("Γ size: got %d want 4 (%v)", len(g), g.Symbols())
	}
	for _, k := range []string{"e", "~e", "f", "~f"} {
		s, err := ParseSymbol(k)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Has(s) {
			t.Errorf("Γ missing %s", k)
		}
	}
}

func TestMentions(t *testing.T) {
	d := MustParse("~e + f")
	if !d.Mentions(Sym("e").Complement()) || d.Mentions(Sym("e")) {
		t.Error("d mentions ē but not e")
	}
}

func TestAtomsSortedDistinct(t *testing.T) {
	d := MustParse("f + ~e + e . f")
	atoms := d.Atoms()
	if len(atoms) != 3 {
		t.Fatalf("atoms: got %v", atoms)
	}
	want := []string{"e", "f", "~e"}
	for i, a := range atoms {
		if a.Key() != want[i] {
			t.Fatalf("atoms[%d]: got %s want %s", i, a.Key(), want[i])
		}
	}
}

func TestSizeCounts(t *testing.T) {
	if got := MustParse("~e + ~f + e . f").Size(); got != 6 {
		t.Fatalf("size: got %d want 6", got)
	}
	if got := Top().Size(); got != 1 {
		t.Fatalf("size of T: got %d want 1", got)
	}
}

func TestPrecedenceParens(t *testing.T) {
	// (e + f) . g must print with parens; e . f + g must not.
	withParens := Seq(Choice(E("e"), E("f")), E("g"))
	if got := withParens.Key(); got != "(e + f) . g" {
		t.Fatalf("got %q", got)
	}
	without := Choice(Seq(E("e"), E("f")), E("g"))
	if got := without.Key(); got != "e . f + g" {
		t.Fatalf("got %q", got)
	}
}

// Size returns the number of nodes in the expression tree; used by the
// benchmarks to report guard sizes.
func (e *Expr) Size() int {
	n := 1
	for _, s := range e.subs {
		n += s.Size()
	}
	return n
}

// Mentions reports whether the expression mentions the symbol in
// exactly the given polarity (not its complement).
func (e *Expr) Mentions(s Symbol) bool {
	switch e.kind {
	case KAtom:
		return e.sym.Equal(s)
	case KSeq, KChoice, KConj:
		for _, sub := range e.subs {
			if sub.Mentions(s) {
				return true
			}
		}
	}
	return false
}
