package algebra

import (
	"sort"
	"strings"
	"sync"
)

// Term is a parameter of an event symbol: either a variable (unbound)
// or a constant (bound).  Parametrized events are introduced in §5 of
// the paper; unparametrized events simply have no terms.
type Term struct {
	// Value is the variable name or the constant text.
	Value string
	// IsVar reports whether the term is a variable.  Variables are
	// instantiated by binding (package param); constants are compared
	// literally.
	IsVar bool
}

// Var returns a variable term.
func Var(name string) Term { return Term{Value: name, IsVar: true} }

// Const returns a constant term.
func Const(value string) Term { return Term{Value: value, IsVar: false} }

// String renders the term in text syntax: variables as ?name,
// constants bare.
func (t Term) String() string {
	if t.IsVar {
		return "?" + t.Value
	}
	return t.Value
}

// Symbol identifies an event or the complement of an event.  The zero
// value is not a valid symbol (its name is empty).
//
// A Symbol with Bar set denotes ē: the assertion that event e will
// never occur on the trace.  Complements are full citizens of the
// alphabet Γ: they can appear in dependencies, occur on traces, and be
// announced between actors.
type Symbol struct {
	// Name is the event's base name, e.g. "commit_buy".
	Name string
	// Bar reports whether this is the complemented symbol ē.
	Bar bool
	// Params are the symbol's parameter terms (nil for classic,
	// unparametrized events).
	Params []Term
}

// Sym returns the (positive) event symbol with the given name.
func Sym(name string) Symbol { return Symbol{Name: name} }

// SymP returns a parametrized event symbol.
func SymP(name string, params ...Term) Symbol {
	return Symbol{Name: name, Params: params}
}

// Complement returns the complement symbol: e ↦ ē and ē ↦ e.  The
// paper identifies the double complement with the original event.
func (s Symbol) Complement() Symbol {
	s.Bar = !s.Bar
	s.Params = append([]Term(nil), s.Params...)
	return s
}

// Base returns the positive (uncomplemented) version of the symbol.
func (s Symbol) Base() Symbol {
	s.Bar = false
	s.Params = append([]Term(nil), s.Params...)
	return s
}

// Ground reports whether the symbol has no variable parameters.
// Only ground symbols can occur on traces.
func (s Symbol) Ground() bool {
	for _, t := range s.Params {
		if t.IsVar {
			return false
		}
	}
	return true
}

// Equal reports whether two symbols are identical, including
// parameters and polarity.
func (s Symbol) Equal(o Symbol) bool { return s.Key() == o.Key() }

// SameEvent reports whether two symbols refer to the same event
// (equal up to polarity).
func (s Symbol) SameEvent(o Symbol) bool { return s.Base().Key() == o.Base().Key() }

// barKeys interns "~name" strings for unparametrized complements, so
// the hot Key path below never allocates.  Keys are requested on every
// message delivery, map lookup, and symbol comparison, which makes
// this the single most-called function in a run; the table only ever
// holds one entry per distinct event name.
var barKeys sync.Map // string → string

// Key returns the canonical text form of the symbol, used for
// ordering, map keys, and printing: "~name[p1,p2]" for a complemented
// parametrized symbol.
func (s Symbol) Key() string {
	if len(s.Params) == 0 {
		// Classic unparametrized events — the entire alphabet of the
		// paper's core calculus — take an allocation-free path: the
		// positive key is the name itself and the complement key is
		// interned once per event name.
		if !s.Bar {
			return s.Name
		}
		if k, ok := barKeys.Load(s.Name); ok {
			return k.(string)
		}
		k := "~" + s.Name
		barKeys.Store(s.Name, k)
		return k
	}
	var b strings.Builder
	if s.Bar {
		b.WriteByte('~')
	}
	b.WriteString(s.Name)
	if len(s.Params) > 0 {
		b.WriteByte('[')
		for i, t := range s.Params {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(t.String())
		}
		b.WriteByte(']')
	}
	return b.String()
}

// String implements fmt.Stringer; it returns Key.
func (s Symbol) String() string { return s.Key() }

// Less orders symbols by their canonical key.
func (s Symbol) Less(o Symbol) bool { return s.Key() < o.Key() }

// Alphabet is a set of symbols closed or not closed under
// complementation, keyed by canonical form.
type Alphabet map[string]Symbol

// NewAlphabet builds an alphabet from symbols.
func NewAlphabet(syms ...Symbol) Alphabet {
	a := make(Alphabet, len(syms))
	for _, s := range syms {
		a.Add(s)
	}
	return a
}

// Add inserts a symbol.
func (a Alphabet) Add(s Symbol) { a[s.Key()] = s }

// AddPair inserts a symbol and its complement, matching the paper's
// convention that Γ contains ē whenever it contains e.
func (a Alphabet) AddPair(s Symbol) {
	a.Add(s)
	a.Add(s.Complement())
}

// Has reports membership.
func (a Alphabet) Has(s Symbol) bool {
	_, ok := a[s.Key()]
	return ok
}

// HasEvent reports whether the alphabet mentions the event in either
// polarity.
func (a Alphabet) HasEvent(s Symbol) bool {
	return a.Has(s) || a.Has(s.Complement())
}

// Union returns a new alphabet containing the symbols of both.
func (a Alphabet) Union(b Alphabet) Alphabet {
	u := make(Alphabet, len(a)+len(b))
	for k, v := range a {
		u[k] = v
	}
	for k, v := range b {
		u[k] = v
	}
	return u
}

// Intersects reports whether the two alphabets share any symbol.
// The guard-independence theorems (paper Theorems 2 and 4) apply when
// dependency alphabets do not intersect.
func (a Alphabet) Intersects(b Alphabet) bool {
	small, large := a, b
	if len(b) < len(a) {
		small, large = b, a
	}
	for k := range small {
		if _, ok := large[k]; ok {
			return true
		}
	}
	return false
}

// Symbols returns the member symbols sorted by key.
func (a Alphabet) Symbols() []Symbol {
	out := make([]Symbol, 0, len(a))
	for _, s := range a {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Bases returns the distinct positive base symbols, sorted by key.
func (a Alphabet) Bases() []Symbol {
	seen := make(map[string]Symbol)
	for _, s := range a {
		b := s.Base()
		seen[b.Key()] = b
	}
	out := make([]Symbol, 0, len(seen))
	for _, s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// WithoutEvent returns a copy of the alphabet with both polarities of
// the given event removed.  This is Γ_{D^e} = Γ_D − {e, ē} from
// Definition 2.
func (a Alphabet) WithoutEvent(s Symbol) Alphabet {
	out := make(Alphabet, len(a))
	for k, v := range a {
		if v.SameEvent(s) {
			continue
		}
		out[k] = v
	}
	return out
}
