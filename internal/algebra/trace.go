package algebra

import (
	"fmt"
	"strings"
)

// Trace is a finite sequence of ground event symbols — a fragment of a
// possible computation (paper §3.2).  Valid traces never repeat an
// event and never contain an event together with its complement
// (Definition 1, the universe U_ℰ).
type Trace []Symbol

// T builds a trace from positive event names; prefix a name with '~'
// for the complemented symbol, e.g. T("e", "~f").
func T(names ...string) Trace {
	tr := make(Trace, len(names))
	for i, n := range names {
		if strings.HasPrefix(n, "~") {
			tr[i] = Sym(strings.TrimPrefix(n, "~")).Complement()
		} else {
			tr[i] = Sym(n)
		}
	}
	return tr
}

// String renders the trace in the paper's ⟨…⟩ notation using ASCII
// brackets: <e ~f>.
func (u Trace) String() string {
	parts := make([]string, len(u))
	for i, s := range u {
		parts[i] = s.Key()
	}
	return "<" + strings.Join(parts, " ") + ">"
}

// Valid reports whether the trace is a member of U_ℰ: all symbols
// ground, no event repeated, no event together with its complement.
func (u Trace) Valid() bool {
	seen := make(map[string]bool, len(u))
	for _, s := range u {
		if !s.Ground() {
			return false
		}
		k, ck := s.Key(), s.Complement().Key()
		if seen[k] || seen[ck] {
			return false
		}
		seen[k] = true
	}
	return true
}

// Contains reports whether the symbol occurs on the trace.
func (u Trace) Contains(s Symbol) bool { return u.Index(s) >= 0 }

// Index returns the zero-based position of the symbol on the trace,
// or -1.
func (u Trace) Index(s Symbol) int {
	k := s.Key()
	for i, x := range u {
		if x.Key() == k {
			return i
		}
	}
	return -1
}

// Concat returns the concatenation uv as a fresh trace.
func (u Trace) Concat(v Trace) Trace {
	out := make(Trace, 0, len(u)+len(v))
	out = append(out, u...)
	out = append(out, v...)
	return out
}

// MaximalOver reports whether the trace is maximal over the alphabet:
// for every event of the alphabet, either the event or its complement
// occurs (the universe U_𝒯 used by the temporal semantics, §4.1).
func (u Trace) MaximalOver(a Alphabet) bool {
	for _, b := range a.Bases() {
		if !u.Contains(b) && !u.Contains(b.Complement()) {
			return false
		}
	}
	return true
}

// Satisfies reports u ⊨ E per Semantics 1–5.
//
//	u ⊨ f        iff f occurs on u                      (atoms)
//	u ⊨ E1+E2    iff u ⊨ E1 or u ⊨ E2
//	u ⊨ E1·E2    iff u = vw with v ⊨ E1 and w ⊨ E2
//	u ⊨ E1|E2    iff u ⊨ E1 and u ⊨ E2
//	u ⊨ ⊤        always;   u ⊨ 0 never
func (u Trace) Satisfies(e *Expr) bool {
	switch e.Kind() {
	case KZero:
		return false
	case KTop:
		return true
	case KAtom:
		return u.Contains(e.Symbol())
	case KChoice:
		for _, a := range e.Subs() {
			if u.Satisfies(a) {
				return true
			}
		}
		return false
	case KConj:
		for _, c := range e.Subs() {
			if !u.Satisfies(c) {
				return false
			}
		}
		return true
	case KSeq:
		return u.satisfiesSeq(e.Subs())
	}
	panic(fmt.Sprintf("algebra: invalid expression kind %v", e.Kind()))
}

// satisfiesSeq checks the n-ary generalization of Semantics 3: u can
// be cut into len(parts) consecutive segments, the i-th satisfying
// parts[i].
func (u Trace) satisfiesSeq(parts []*Expr) bool {
	if len(parts) == 0 {
		return true // empty product: only λ ⊨ it, and u of any size splits by λ-segments… but normalized sequences are never empty.
	}
	if len(parts) == 1 {
		return u.Satisfies(parts[0])
	}
	for cut := 0; cut <= len(u); cut++ {
		if u[:cut].Satisfies(parts[0]) && u[cut:].satisfiesSeq(parts[1:]) {
			return true
		}
	}
	return false
}

// Universe enumerates U_ℰ restricted to the alphabet: every valid
// trace (including λ) whose symbols are drawn from the alphabet, each
// event used at most once and never with its complement.  The result
// grows super-exponentially with the number of events; it is intended
// for verification on small alphabets (≤ 4 events).
func Universe(a Alphabet) []Trace {
	bases := a.Bases()
	var out []Trace
	var build func(prefix Trace, remaining []Symbol)
	build = func(prefix Trace, remaining []Symbol) {
		cp := make(Trace, len(prefix))
		copy(cp, prefix)
		out = append(out, cp)
		for i, b := range remaining {
			rest := make([]Symbol, 0, len(remaining)-1)
			rest = append(rest, remaining[:i]...)
			rest = append(rest, remaining[i+1:]...)
			for _, s := range []Symbol{b, b.Complement()} {
				if a.Has(s) {
					build(append(prefix, s), rest)
				}
			}
		}
	}
	build(Trace{}, bases)
	return out
}

// MaximalUniverse enumerates U_𝒯 over the alphabet: every trace on
// which each event of the alphabet occurs exactly once in one of its
// two polarities.  For n events there are n!·2ⁿ such traces.
func MaximalUniverse(a Alphabet) []Trace {
	bases := a.Bases()
	var out []Trace
	var build func(prefix Trace, remaining []Symbol)
	build = func(prefix Trace, remaining []Symbol) {
		if len(remaining) == 0 {
			cp := make(Trace, len(prefix))
			copy(cp, prefix)
			out = append(out, cp)
			return
		}
		for i, b := range remaining {
			rest := make([]Symbol, 0, len(remaining)-1)
			rest = append(rest, remaining[:i]...)
			rest = append(rest, remaining[i+1:]...)
			build(append(prefix, b), rest)
			build(append(prefix, b.Complement()), rest)
		}
	}
	build(Trace{}, bases)
	return out
}

// Denotation returns ⟦E⟧ restricted to the given universe: the traces
// of the universe that satisfy E.
func Denotation(e *Expr, universe []Trace) []Trace {
	var out []Trace
	for _, u := range universe {
		if u.Satisfies(e) {
			out = append(out, u)
		}
	}
	return out
}
