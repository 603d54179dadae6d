package param

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

func TestUnify(t *testing.T) {
	cases := []struct {
		pattern, ground string
		want            Binding
		ok              bool
	}{
		{"e[?x]", "e[c1]", Binding{"x": "c1"}, true},
		{"e[?x,?y]", "e[a,b]", Binding{"x": "a", "y": "b"}, true},
		{"e[?x,?x]", "e[a,a]", Binding{"x": "a"}, true},
		{"e[?x,?x]", "e[a,b]", nil, false},
		{"e[k,?y]", "e[k,b]", Binding{"y": "b"}, true},
		{"e[k,?y]", "e[x,b]", nil, false},
		{"e[?x]", "f[c1]", nil, false},
		{"e[?x]", "~e[c1]", nil, false},
		{"~e[?x]", "~e[c1]", Binding{"x": "c1"}, true},
		{"e[?x]", "e[a,b]", nil, false},
		{"e", "e", Binding{}, true},
	}
	for _, c := range cases {
		got, ok := Unify(sym(c.pattern), sym(c.ground))
		if ok != c.ok {
			t.Errorf("Unify(%s, %s): ok=%v want %v", c.pattern, c.ground, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if got.Key() != c.want.Key() {
			t.Errorf("Unify(%s, %s): got %v want %v", c.pattern, c.ground, got.Key(), c.want.Key())
		}
	}
}

func TestBindingMerge(t *testing.T) {
	a := Binding{"x": "1"}
	b := Binding{"y": "2"}
	m, ok := a.Merge(b)
	if !ok || m["x"] != "1" || m["y"] != "2" {
		t.Fatalf("merge: %v %v", m, ok)
	}
	if _, ok := a.Merge(Binding{"x": "9"}); ok {
		t.Fatal("conflicting merge must fail")
	}
	if a.Key() != "{x=1}" || (Binding{}).Key() != "{}" {
		t.Fatalf("keys: %q %q", a.Key(), (Binding{}).Key())
	}
}

func TestSubstExpr(t *testing.T) {
	e := algebra.MustParse("enter[?x] . exit[?x] + ~req[?y]")
	got := SubstExpr(e, Binding{"x": "t7"})
	want := algebra.MustParse("enter[t7] . exit[t7] + ~req[?y]")
	if !got.Equal(want) {
		t.Fatalf("subst: got %v want %v", got, want)
	}
	if Ground(got) {
		t.Fatal("?y must remain")
	}
	if vs := Vars(got); len(vs) != 1 || vs[0] != "y" {
		t.Fatalf("vars: %v", vs)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	b1 := sym("enter")
	first := c.Next(b1)
	second := c.Next(b1)
	if first.Key() != "enter[1]" || second.Key() != "enter[2]" {
		t.Fatalf("tokens: %s %s", first, second)
	}
	if c.counts[b1.Key()] != 2 {
		t.Fatalf("count: %d", c.counts[b1.Key()])
	}
	// Complement polarity shares the counter of the base event.
	third := c.Next(sym("~enter"))
	if third.Key() != "~enter[3]" {
		t.Fatalf("complement token: %s", third)
	}
}

// TestExample12Template reproduces Example 12: the travel workflow
// parametrized by customer id, instantiated when s_buy[cid] is bound.
func TestExample12Template(t *testing.T) {
	tpl, err := NewTemplate("s_buy[?cid]",
		"~s_buy[?cid] + s_book[?cid]",
		"~c_buy[?cid] + c_book[?cid] . c_buy[?cid]",
		"~c_book[?cid] + c_buy[?cid] + s_cancel[?cid]",
	)
	if err != nil {
		t.Fatal(err)
	}
	w, b, err := tpl.Instantiate(sym("s_buy[alice]"))
	if err != nil {
		t.Fatal(err)
	}
	if b["cid"] != "alice" {
		t.Fatalf("binding: %v", b)
	}
	if len(w.Deps) != 3 {
		t.Fatalf("deps: %d", len(w.Deps))
	}
	want := algebra.MustParse("~c_buy[alice] + c_book[alice] . c_buy[alice]")
	if !w.Deps[1].Equal(want) {
		t.Fatalf("instance: got %v want %v", w.Deps[1], want)
	}
	// Two customers yield independent instances.
	w2, _, err := tpl.Instantiate(sym("s_buy[bob]"))
	if err != nil {
		t.Fatal(err)
	}
	if w.Deps[0].Gamma().Intersects(w2.Deps[0].Gamma()) {
		t.Fatal("instances for different customers must be alphabet-disjoint")
	}
}

func TestTemplateValidate(t *testing.T) {
	tpl, err := NewTemplate("key[?a]", "e[?a] + f[?b]")
	if err != nil {
		t.Fatal(err)
	}
	if err := tpl.Validate(); err == nil {
		t.Fatal("unbound ?b must be rejected")
	}
	if _, _, err := tpl.Instantiate(sym("key[1]")); err == nil {
		t.Fatal("instantiation of invalid template must fail")
	}
	tpl2, _ := NewTemplate("key[?a]", "e[?a] + f[?a]")
	if _, _, err := tpl2.Instantiate(sym("other[1]")); err == nil {
		t.Fatal("non-matching ground event must fail")
	}
}

// Merge returns the union of two bindings, failing on conflicting
// assignments.
func (b Binding) Merge(o Binding) (Binding, bool) {
	out := b.Clone()
	for k, v := range o {
		if prev, ok := out[k]; ok && prev != v {
			return nil, false
		}
		out[k] = v
	}
	return out, true
}
