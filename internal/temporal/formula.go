package temporal

import (
	"sort"
	"strings"

	"repro/internal/algebra"
)

// Product is a conjunction of guard literals.  The empty product is ⊤.
// Products are normalized on construction: literals are sorted and
// deduplicated, literals entailed by other literals of the product are
// dropped, and an internally contradictory product is represented as
// ok == false by newProduct.
type Product struct {
	lits []Literal
	key  string
}

// newProduct normalizes a conjunction of literals.  ok is false when
// the product is unsatisfiable (it denotes 0 and must be dropped from
// any sum).
func newProduct(lits []Literal) (Product, bool) {
	// Sort, dedupe.
	sorted := append([]Literal(nil), lits...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].key < sorted[j].key })
	uniq := sorted[:0]
	var prev string
	for i, l := range sorted {
		if l.unsat() {
			return Product{}, false
		}
		if i > 0 && l.key == prev {
			continue
		}
		uniq = append(uniq, l)
		prev = l.key
	}
	if productContradictory(uniq) {
		return Product{}, false
	}
	// Drop literals entailed by a different literal.
	kept := make([]Literal, 0, len(uniq))
	for i, l := range uniq {
		entailed := false
		for j, m := range uniq {
			if i == j {
				continue
			}
			if m.entails(l) && !(l.entails(m) && j > i) {
				// m is at least as strong; keep only the first of a
				// mutually-entailing pair.
				entailed = true
				break
			}
		}
		if !entailed {
			kept = append(kept, l)
		}
	}
	p := Product{lits: kept}
	p.key = productKey(kept)
	return internProduct(p), true
}

func productKey(lits []Literal) string {
	if len(lits) == 0 {
		return "T"
	}
	parts := make([]string, len(lits))
	for i, l := range lits {
		parts[i] = l.key
	}
	return strings.Join(parts, " | ")
}

// productContradictory detects conjunctions that no (trace, index) can
// satisfy:
//
//   - □s together with ¬s,
//   - the events required to occur (by □ or ◇ literals) include both
//     an event and its complement,
//   - the precedence constraints of ◇-sequence literals form a cycle,
//   - a precedence chain forces b before a while □a and ¬b both hold
//     (a occurred by now, so b must have too).
func productContradictory(lits []Literal) bool {
	occurred := map[string]bool{}
	notYet := map[string]bool{}
	required := map[string]algebra.Symbol{}
	prec := map[string]map[string]bool{} // a.Key() → set of keys that must come after a

	addEdge := func(a, b algebra.Symbol) {
		ka := a.Key()
		if prec[ka] == nil {
			prec[ka] = map[string]bool{}
		}
		prec[ka][b.Key()] = true
	}

	for _, l := range lits {
		switch l.kind {
		case LitOccurred:
			occurred[l.syms[0].Key()] = true
			required[l.syms[0].Key()] = l.syms[0]
		case LitNotYet:
			notYet[l.syms[0].Key()] = true
		case LitEventually:
			for i, s := range l.syms {
				required[s.Key()] = s
				if i > 0 {
					addEdge(l.syms[i-1], s)
				}
			}
		}
	}
	for k := range occurred {
		if notYet[k] {
			return true
		}
	}
	for k, s := range required {
		if _, both := required[s.Complement().Key()]; both {
			return true
		}
		_ = k
	}
	// Reachability over precedence edges.
	reach := func(from string) map[string]bool {
		seen := map[string]bool{}
		stack := []string{from}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for next := range prec[cur] {
				if !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
		}
		return seen
	}
	for a := range prec {
		r := reach(a)
		if r[a] {
			return true // cycle
		}
		// a strictly precedes everything in r.
		if notYet[a] {
			for b := range r {
				if occurred[b] {
					return true // b occurred, so its predecessor a must have
				}
			}
		}
	}
	return false
}

// Lits returns the product's literals (shared; do not mutate).
func (p Product) Lits() []Literal { return p.lits }

// String implements fmt.Stringer: the canonical text form; the empty
// product prints "T".
func (p Product) String() string { return p.key }

// entailsProduct reports p ⇒ q: every literal of q is entailed by some
// literal of p.
func (p Product) entailsProduct(q Product) bool {
	for _, m := range q.lits {
		ok := false
		for _, l := range p.lits {
			if l.entails(m) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// EvalAt model-checks the product at index i of trace u.
func (p Product) EvalAt(u algebra.Trace, i int) bool {
	for _, l := range p.lits {
		if !l.EvalAt(u, i) {
			return false
		}
	}
	return true
}

// Formula is a guard in sum-of-products normal form.  The zero value
// is 0 (the unsatisfiable guard); ⊤ is the formula holding the single
// empty product.  Formulas are immutable and normalized on
// construction by the simplifier (absorption + consensus), which is
// strong enough to reproduce the closed-form guards of the paper's
// Example 9.
type Formula struct {
	prods []Product // sorted by key, absorption-free
	key   string
}

var (
	falseFormula = Formula{key: "0"}
	trueFormula  = func() Formula {
		p, _ := newProduct(nil)
		return Formula{prods: []Product{p}, key: "T"}
	}()
)

// FalseF returns the guard 0.
func FalseF() Formula { return falseFormula }

// TrueF returns the guard ⊤.
func TrueF() Formula { return trueFormula }

// Lit returns the guard consisting of a single literal.
func Lit(l Literal) Formula { return product(l) }

// product builds a single-product formula.
func product(lits ...Literal) Formula {
	p, ok := newProduct(lits)
	if !ok {
		return FalseF()
	}
	return canon([]Product{p})
}

// Or returns the disjunction of the formulas, simplified.  Operands
// are already canonical, so the result is memoized on their sorted
// keys; the combination runs at most once per distinct operand set.
func Or(fs ...Formula) Formula {
	switch len(fs) {
	case 0:
		return FalseF()
	case 1:
		if len(fs[0].prods) == 0 {
			return FalseF() // normalizes a zero-value operand's "" key
		}
		return fs[0]
	}
	keys := make([]string, len(fs))
	for i, f := range fs {
		keys[i] = f.key
	}
	sig := signature(keys)
	if v, ok := orTable.Load(sig); ok {
		return v.(Formula)
	}
	g := orCompute(fs)
	v, _ := orTable.LoadOrStore(sig, g)
	return v.(Formula)
}

func orCompute(fs []Formula) Formula {
	var all []Product
	for _, f := range fs {
		all = append(all, f.prods...)
	}
	return canon(all)
}

// And returns the conjunction of the formulas, simplified (cross
// product of the operands' sums).  Memoized like Or: the cross product
// over sorted normalized products is commutative in the operands.
func And(fs ...Formula) Formula {
	switch len(fs) {
	case 0:
		return TrueF()
	case 1:
		if len(fs[0].prods) == 0 {
			return FalseF()
		}
		return fs[0]
	}
	keys := make([]string, len(fs))
	for i, f := range fs {
		keys[i] = f.key
	}
	sig := signature(keys)
	if v, ok := andTable.Load(sig); ok {
		return v.(Formula)
	}
	g := andCompute(fs)
	v, _ := andTable.LoadOrStore(sig, g)
	return v.(Formula)
}

func andCompute(fs []Formula) Formula {
	acc := []Product{{key: "T"}}
	for _, f := range fs {
		if len(f.prods) == 0 {
			return FalseF()
		}
		var next []Product
		for _, a := range acc {
			for _, b := range f.prods {
				merged := make([]Literal, 0, len(a.lits)+len(b.lits))
				merged = append(merged, a.lits...)
				merged = append(merged, b.lits...)
				if p, ok := newProduct(merged); ok {
					next = append(next, p)
				}
			}
		}
		if len(next) == 0 {
			return FalseF()
		}
		acc = next
	}
	return canon(acc)
}

// MapLiterals rebuilds the formula with every literal transformed by
// fn, renormalizing each product and the sum.  It is equivalent to
// Or-ing the And of Lit(fn(l)) per product but does the work at the
// product level: one normalization per product and one canon for the
// sum, instead of formula-level combinators per literal — the fast
// path for formula instantiation in package param.
func MapLiterals(f Formula, fn func(Literal) Literal) Formula {
	if f.IsTrue() || f.IsFalse() {
		return f
	}
	prods := make([]Product, 0, len(f.prods))
	for _, p := range f.prods {
		lits := make([]Literal, len(p.lits))
		for i, l := range p.lits {
			lits[i] = fn(l)
		}
		if np, ok := newProduct(lits); ok {
			prods = append(prods, np)
		}
	}
	return canon(prods)
}

// IsTrue reports whether the guard is ⊤ (the event may occur
// immediately).
func (f Formula) IsTrue() bool { return len(f.prods) == 1 && len(f.prods[0].lits) == 0 }

// IsFalse reports whether the guard is 0 (the event may never occur).
func (f Formula) IsFalse() bool { return len(f.prods) == 0 }

// Products returns the formula's products (shared; do not mutate).
func (f Formula) Products() []Product { return f.prods }

// Key returns the canonical text form: products joined by " + ".
func (f Formula) Key() string { return f.key }

// String implements fmt.Stringer.
func (f Formula) String() string { return f.key }

// Equal reports canonical equality.
func (f Formula) Equal(g Formula) bool { return f.key == g.key }

// Size returns the total number of literals, a measure of guard
// complexity used by the benchmarks.
func (f Formula) Size() int {
	n := 0
	for _, p := range f.prods {
		n += len(p.lits)
	}
	return n
}

// Symbols returns the distinct event symbols mentioned by the guard,
// sorted by key.
func (f Formula) Symbols() []algebra.Symbol {
	seen := map[string]algebra.Symbol{}
	for _, p := range f.prods {
		for _, l := range p.lits {
			for _, s := range l.syms {
				seen[s.Key()] = s
			}
		}
	}
	out := make([]algebra.Symbol, 0, len(seen))
	for _, s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// EvalAt model-checks the guard at index i of trace u.
func (f Formula) EvalAt(u algebra.Trace, i int) bool {
	for _, p := range f.prods {
		if p.EvalAt(u, i) {
			return true
		}
	}
	return false
}

// Node converts the guard to the general 𝒯 syntax, for cross-checking
// against the model checker.
func (f Formula) Node() *Node {
	if f.IsFalse() {
		return FalseNode()
	}
	if f.IsTrue() {
		return TrueNode()
	}
	sum := make([]*Node, len(f.prods))
	for i, p := range f.prods {
		if len(p.lits) == 0 {
			sum[i] = TrueNode()
			continue
		}
		conj := make([]*Node, len(p.lits))
		for j, l := range p.lits {
			conj[j] = l.Node()
		}
		if len(conj) == 1 {
			sum[i] = conj[0]
		} else {
			sum[i] = Prod(conj...)
		}
	}
	if len(sum) == 1 {
		return sum[0]
	}
	return Sum(sum...)
}

// DiamondExpr builds the guard ◇E for an ℰ-expression E: the
// requirement that the eventual complete trace satisfies E.  Because
// coerced ℰ-formulas are monotone, ◇ distributes over + and |, and ◇
// of a sequence of atoms is a single ◇-sequence literal.
func DiamondExpr(e *algebra.Expr) Formula {
	c := algebra.CNF(e)
	return diamondCNF(c)
}

func diamondCNF(e *algebra.Expr) Formula {
	switch e.Kind() {
	case algebra.KZero:
		return FalseF()
	case algebra.KTop:
		return TrueF()
	case algebra.KAtom:
		return Lit(Eventually(e.Symbol()))
	case algebra.KSeq:
		syms := make([]algebra.Symbol, len(e.Subs()))
		for i, s := range e.Subs() {
			syms[i] = s.Symbol()
		}
		return Lit(Eventually(syms...))
	case algebra.KChoice:
		parts := make([]Formula, len(e.Subs()))
		for i, s := range e.Subs() {
			parts[i] = diamondCNF(s)
		}
		return Or(parts...)
	case algebra.KConj:
		parts := make([]Formula, len(e.Subs()))
		for i, s := range e.Subs() {
			parts[i] = diamondCNF(s)
		}
		return And(parts...)
	}
	panic("temporal: invalid expression kind in DiamondExpr")
}
