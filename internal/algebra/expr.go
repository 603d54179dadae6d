package algebra

import (
	"sort"
	"strings"
)

// Kind discriminates expression nodes.
type Kind uint8

// Expression kinds, mirroring Syntax 1–4 of the paper.
const (
	KZero   Kind = iota // 0 — no trace satisfies it
	KTop                // ⊤ — every trace satisfies it
	KAtom               // an event symbol e or ē
	KSeq                // E1 · E2 · … (ordered)
	KChoice             // E1 + E2 + … (set union)
	KConj               // E1 | E2 | … (set intersection)
)

func (k Kind) String() string {
	switch k {
	case KZero:
		return "0"
	case KTop:
		return "T"
	case KAtom:
		return "atom"
	case KSeq:
		return "seq"
	case KChoice:
		return "choice"
	case KConj:
		return "conj"
	}
	return "invalid"
}

// Expr is an immutable expression of the event algebra ℰ.  Expressions
// are normalized on construction: n-ary operators are flattened,
// identities and absorbing elements are applied, choice and
// conjunction operands are sorted and deduplicated, and sequences that
// are unsatisfiable in U_ℰ (a repeated event, or an event together
// with its complement) collapse to 0.  Consequently two expressions
// are semantically suspect of being equal exactly when their canonical
// keys match, and Key equality is used throughout for memoization.
//
// Construct expressions with Zero, Top, At, Seq, Choice, and Conj —
// never with composite literals.
type Expr struct {
	kind Kind
	sym  Symbol  // valid when kind == KAtom
	subs []*Expr // KSeq: ordered parts; KChoice/KConj: sorted, deduped
	key  string  // canonical text form, computed on construction
}

var (
	zeroExpr = &Expr{kind: KZero, key: "0"}
	topExpr  = &Expr{kind: KTop, key: "T"}
)

// Zero returns 0, the expression no trace satisfies.
func Zero() *Expr { return zeroExpr }

// Top returns ⊤, the expression every trace satisfies.
func Top() *Expr { return topExpr }

// At returns the atomic expression for a symbol.
func At(s Symbol) *Expr {
	e := &Expr{kind: KAtom, sym: s}
	e.key = s.Key()
	return e
}

// E is shorthand for At(Sym(name)).
func E(name string) *Expr { return At(Sym(name)) }

// NotE is shorthand for At(Sym(name).Complement()): the atom ē.
func NotE(name string) *Expr { return At(Sym(name).Complement()) }

// Kind returns the node kind.
func (e *Expr) Kind() Kind { return e.kind }

// Symbol returns the atom's symbol; it must only be called on KAtom
// nodes.
func (e *Expr) Symbol() Symbol {
	if e.kind != KAtom {
		panic("algebra: Symbol called on non-atom " + e.key)
	}
	return e.sym
}

// Subs returns the operand list (shared; callers must not mutate).
func (e *Expr) Subs() []*Expr { return e.subs }

// Key returns the canonical text form of the expression.  Two
// expressions constructed through this package are structurally equal
// iff their keys are equal.
func (e *Expr) Key() string { return e.key }

// Equal reports canonical equality.
func (e *Expr) Equal(o *Expr) bool { return e.key == o.key }

// IsZero reports whether the expression is 0.
func (e *Expr) IsZero() bool { return e.kind == KZero }

// IsTop reports whether the expression is ⊤.
func (e *Expr) IsTop() bool { return e.kind == KTop }

// Seq returns the sequence E1 · E2 · …, normalized.
//
// Normalization facts used (each is validated against the trace
// semantics by the package tests):
//   - 0 is absorbing: E·0 = 0·E = 0.
//   - ⊤ is the unit: because atom satisfaction is
//     occurrence-anywhere-within-the-segment, ⊤·E = E·⊤ = E.
//   - a sequence whose atoms repeat an event or contain an event
//     together with its complement denotes the empty set, hence 0.
func Seq(parts ...*Expr) *Expr {
	flat := make([]*Expr, 0, len(parts))
	for _, p := range parts {
		switch p.kind {
		case KZero:
			return zeroExpr
		case KTop:
			// unit: drop
		case KSeq:
			flat = append(flat, p.subs...)
		default:
			flat = append(flat, p)
		}
	}
	switch len(flat) {
	case 0:
		return topExpr
	case 1:
		return flat[0]
	}
	if seqUnsat(flat) {
		return zeroExpr
	}
	e := &Expr{kind: KSeq, subs: flat}
	e.key = buildKey(KSeq, flat)
	return e
}

// seqUnsat reports whether a flat, all-atom sequence is unsatisfiable
// in U_ℰ (repeated ground event, or a ground event alongside its
// complement).  Sequences containing non-atoms (pre-CNF trees) are
// checked only over their directly visible atoms.
func seqUnsat(parts []*Expr) bool {
	seen := make(map[string]bool, len(parts))
	for _, p := range parts {
		if p.kind != KAtom || !p.sym.Ground() {
			continue
		}
		k := p.sym.Key()
		ck := p.sym.Complement().Key()
		if seen[k] || seen[ck] {
			return true
		}
		seen[k] = true
	}
	return false
}

// Choice returns the union E1 + E2 + …, normalized: flattened, 0
// dropped, ⊤ absorbing, operands sorted and deduplicated.
func Choice(alts ...*Expr) *Expr {
	flat := make([]*Expr, 0, len(alts))
	for _, a := range alts {
		switch a.kind {
		case KZero:
			// identity: drop
		case KTop:
			return topExpr
		case KChoice:
			flat = append(flat, a.subs...)
		default:
			flat = append(flat, a)
		}
	}
	flat = sortDedupe(flat)
	switch len(flat) {
	case 0:
		return zeroExpr
	case 1:
		return flat[0]
	}
	e := &Expr{kind: KChoice, subs: flat}
	e.key = buildKey(KChoice, flat)
	return e
}

// Conj returns the intersection E1 | E2 | …, normalized: flattened,
// ⊤ dropped, 0 absorbing, operands sorted and deduplicated, and an
// atom conjoined with its complement collapses to 0 (no trace contains
// both e and ē).
func Conj(parts ...*Expr) *Expr {
	flat := make([]*Expr, 0, len(parts))
	for _, c := range parts {
		switch c.kind {
		case KZero:
			return zeroExpr
		case KTop:
			// identity: drop
		case KConj:
			flat = append(flat, c.subs...)
		default:
			flat = append(flat, c)
		}
	}
	flat = sortDedupe(flat)
	switch len(flat) {
	case 0:
		return topExpr
	case 1:
		return flat[0]
	}
	// e | ē = 0 for ground atoms.
	atoms := make(map[string]bool, len(flat))
	for _, c := range flat {
		if c.kind == KAtom && c.sym.Ground() {
			atoms[c.sym.Key()] = true
		}
	}
	for _, c := range flat {
		if c.kind == KAtom && c.sym.Ground() && atoms[c.sym.Complement().Key()] {
			return zeroExpr
		}
	}
	e := &Expr{kind: KConj, subs: flat}
	e.key = buildKey(KConj, flat)
	return e
}

func sortDedupe(xs []*Expr) []*Expr {
	sort.Slice(xs, func(i, j int) bool { return xs[i].key < xs[j].key })
	out := xs[:0]
	var prev string
	for i, x := range xs {
		if i > 0 && x.key == prev {
			continue
		}
		out = append(out, x)
		prev = x.key
	}
	return out
}

func buildKey(k Kind, subs []*Expr) string {
	var op string
	switch k {
	case KSeq:
		op = " . "
	case KChoice:
		op = " + "
	case KConj:
		op = " | "
	}
	var b strings.Builder
	for i, s := range subs {
		if i > 0 {
			b.WriteString(op)
		}
		if needsParens(k, s.kind) {
			b.WriteByte('(')
			b.WriteString(s.key)
			b.WriteByte(')')
		} else {
			b.WriteString(s.key)
		}
	}
	return b.String()
}

// needsParens reports whether a child of kind inner must be
// parenthesized under a parent of kind outer, following the text
// syntax precedence · > | > +.
func needsParens(outer, inner Kind) bool {
	prec := func(k Kind) int {
		switch k {
		case KChoice:
			return 1
		case KConj:
			return 2
		case KSeq:
			return 3
		default:
			return 4
		}
	}
	return prec(inner) < prec(outer)
}

// String returns the canonical text form (parseable by Parse).
func (e *Expr) String() string { return e.key }

// Gamma returns Γ_E: every event symbol mentioned in E together with
// its complement, per the paper's convention ("Γ_E is the set of
// events mentioned in E, and their complements").
func (e *Expr) Gamma() Alphabet {
	a := make(Alphabet)
	e.collectGamma(a)
	return a
}

func (e *Expr) collectGamma(a Alphabet) {
	switch e.kind {
	case KAtom:
		a.AddPair(e.sym)
	case KSeq, KChoice, KConj:
		for _, s := range e.subs {
			s.collectGamma(a)
		}
	}
}

// Atoms returns the distinct atom symbols that literally appear in the
// expression (no complement closure), sorted by key.
func (e *Expr) Atoms() []Symbol {
	seen := make(map[string]Symbol)
	var walk func(*Expr)
	walk = func(x *Expr) {
		switch x.kind {
		case KAtom:
			seen[x.sym.Key()] = x.sym
		case KSeq, KChoice, KConj:
			for _, s := range x.subs {
				walk(s)
			}
		}
	}
	walk(e)
	out := make([]Symbol, 0, len(seen))
	for _, s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
