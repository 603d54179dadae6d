package temporal

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/algebra"
)

// Tri is a three-valued truth value used when a guard is evaluated
// against partial, distributed knowledge.
type Tri uint8

// Three-valued results.
const (
	Unknown Tri = iota
	False
	True
)

func (t Tri) String() string {
	switch t {
	case True:
		return "true"
	case False:
		return "false"
	default:
		return "unknown"
	}
}

// Status is what an actor knows about one event symbol.
type Status uint8

// Per-symbol knowledge states, ordered by strength of the claim.
const (
	// StatusUnknown: no information about the symbol.
	StatusUnknown Status = iota
	// StatusHeld: the symbol's own actor has confirmed it has not
	// occurred and is holding it back until the inquirer decides (the
	// agreement the paper requires for ¬f literals).  Holds are
	// transient: they justify a decision now but must not rewrite the
	// guard permanently.
	StatusHeld
	// StatusCondPromised: a conditional ◇ promise has been received
	// (paper §4.3, Example 11): the symbol has not occurred yet, and
	// its actor will make it occur provided this actor's event does.
	// Like holds, conditional promises justify a decision now but
	// never a permanent guard rewrite — they lapse if unused.
	StatusCondPromised
	// StatusPromised: a binding ◇ promise has been received — the
	// symbol has not occurred yet but is guaranteed to occur
	// eventually (paper §4.3).
	StatusPromised
	// StatusOccurred: a □ announcement has been received; the logical
	// occurrence time is known.
	StatusOccurred
	// StatusImpossible: the symbol can never occur (its complement
	// occurred or was promised).
	StatusImpossible
)

func (s Status) String() string {
	switch s {
	case StatusUnknown:
		return "unknown"
	case StatusHeld:
		return "held"
	case StatusCondPromised:
		return "cond-promised"
	case StatusPromised:
		return "promised"
	case StatusOccurred:
		return "occurred"
	case StatusImpossible:
		return "impossible"
	}
	return "invalid"
}

// Knowledge is an actor's accumulated information about event
// occurrences: the assimilation target for □ and ◇ messages (§4.3).
// The zero value is empty and ready to use.  Knowledge is not safe for
// concurrent use; each actor owns one.
type Knowledge struct {
	m   map[string]fact
	ver uint64
}

type fact struct {
	status Status
	time   int64 // logical occurrence time, valid when status == StatusOccurred
}

// Observe records a □s announcement with its logical occurrence time
// and marks the complement impossible.
func (k *Knowledge) Observe(s algebra.Symbol, t int64) {
	k.set(s, fact{status: StatusOccurred, time: t})
	k.set(s.Complement(), fact{status: StatusImpossible})
}

// Promise records a binding ◇s promise: s has not occurred yet but
// will, so its complement is impossible.  Occurrence information, once
// present, is never weakened.
func (k *Knowledge) Promise(s algebra.Symbol) {
	if st := k.Status(s); st == StatusOccurred || st == StatusImpossible {
		return
	}
	k.set(s, fact{status: StatusPromised})
	k.set(s.Complement(), fact{status: StatusImpossible})
}

// Hold records that s's actor confirmed s has not occurred and is
// holding it.  Release with Unhold once the pending decision is made.
func (k *Knowledge) Hold(s algebra.Symbol) {
	if st := k.Status(s); st != StatusUnknown {
		return
	}
	k.set(s, fact{status: StatusHeld})
}

// Unhold clears a hold, returning the symbol to unknown.
func (k *Knowledge) Unhold(s algebra.Symbol) {
	if k.Status(s) == StatusHeld {
		k.set(s, fact{status: StatusUnknown})
	}
}

// CondPromise records a conditional ◇s promise.  It upgrades holds and
// unknowns but never weakens stronger facts.
func (k *Knowledge) CondPromise(s algebra.Symbol) {
	if st := k.Status(s); st == StatusUnknown || st == StatusHeld {
		k.set(s, fact{status: StatusCondPromised})
	}
}

// ClearCond lapses a conditional promise, returning the symbol to
// unknown.
func (k *Knowledge) ClearCond(s algebra.Symbol) {
	if k.Status(s) == StatusCondPromised {
		k.set(s, fact{status: StatusUnknown})
	}
}

// MarkImpossible records that s can never occur (learned indirectly,
// e.g. from an inquiry reply), without any occurrence time for the
// complement.  Occurrence facts are never overwritten.
func (k *Knowledge) MarkImpossible(s algebra.Symbol) {
	if k.Status(s) == StatusOccurred {
		return
	}
	k.set(s, fact{status: StatusImpossible})
}

// Clone returns an independent copy of the knowledge, used for
// hypothetical reasoning ("would this guard hold if r occurred?").
func (k *Knowledge) Clone() *Knowledge {
	cp := &Knowledge{ver: k.ver}
	if k.m != nil {
		cp.m = make(map[string]fact, len(k.m))
		for key, f := range k.m {
			cp.m[key] = f
		}
	}
	return cp
}

// PermanentClone copies only the permanent facts — occurrences,
// impossibilities, and binding promises — dropping transient holds and
// conditional promises.  Used where a decision must survive until an
// arbitrarily later discharge (promise granting).
func (k *Knowledge) PermanentClone() *Knowledge {
	cp := &Knowledge{ver: k.ver}
	if k.m != nil {
		cp.m = make(map[string]fact, len(k.m))
		for key, f := range k.m {
			switch f.status {
			case StatusOccurred, StatusImpossible, StatusPromised:
				cp.m[key] = f
			}
		}
	}
	return cp
}

// SizeHint presizes empty knowledge for n facts, so a holder that
// knows its symbol universe pays for one map instead of rehashing as
// the first announcements arrive.  It does nothing once a fact is
// recorded.
func (k *Knowledge) SizeHint(n int) {
	if k.m == nil && n > 0 {
		k.m = make(map[string]fact, n)
	}
}

func (k *Knowledge) set(s algebra.Symbol, f fact) {
	if k.m == nil {
		k.m = make(map[string]fact)
	}
	k.m[s.Key()] = f
	k.ver++
}

// Version returns a counter that changes on every mutation (including
// transient holds and conditional promises — they affect evalSeq's
// ordering evidence).  Callers cache Reduce results and skip
// re-reduction while the version is unchanged: Reduce of a residual
// under unmodified knowledge is the identity.
func (k *Knowledge) Version() uint64 { return k.ver }

// Range calls fn for every symbol with a non-unknown status, in
// unspecified order.  Serialization callers (WAL snapshots) sort the
// keys themselves.
func (k *Knowledge) Range(fn func(key string, st Status, at int64)) {
	for key, f := range k.m {
		if f.status == StatusUnknown {
			continue
		}
		fn(key, f.status, f.time)
	}
}

// Status returns what is known about the symbol.
func (k *Knowledge) Status(s algebra.Symbol) Status {
	if k.m == nil {
		return StatusUnknown
	}
	return k.m[s.Key()].status
}

// Time returns the logical occurrence time of s, if known.
func (k *Knowledge) Time(s algebra.Symbol) (int64, bool) {
	if k.m == nil {
		return 0, false
	}
	f := k.m[s.Key()]
	if f.status != StatusOccurred {
		return 0, false
	}
	return f.time, true
}

// String lists the known facts, sorted, for logs and tests.
func (k *Knowledge) String() string {
	if k.m == nil {
		return "{}"
	}
	keys := make([]string, 0, len(k.m))
	for key := range k.m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, key := range keys {
		f := k.m[key]
		switch f.status {
		case StatusUnknown:
			continue
		case StatusOccurred:
			parts = append(parts, fmt.Sprintf("%s=occurred@%d", key, f.time))
		default:
			parts = append(parts, fmt.Sprintf("%s=%s", key, f.status))
		}
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Decide evaluates a guard formula at decision time, three-valued,
// using everything known including transient holds.
func (k *Knowledge) Decide(f Formula) Tri { return k.eval(f, true) }

// Eval evaluates a guard using only permanent facts (occurrences,
// impossibilities, binding promises) — the view that is safe for
// rewriting the guard.
func (k *Knowledge) Eval(f Formula) Tri { return k.eval(f, false) }

func (k *Knowledge) eval(f Formula, useHolds bool) Tri {
	anyUnknown := false
	for _, p := range f.Products() {
		v := k.evalProduct(p, useHolds)
		if v == True {
			return True
		}
		if v == Unknown {
			anyUnknown = true
		}
	}
	if anyUnknown {
		return Unknown
	}
	return False
}

func (k *Knowledge) evalProduct(p Product, useHolds bool) Tri {
	anyUnknown := false
	for _, l := range p.Lits() {
		switch k.evalLit(l, useHolds) {
		case False:
			return False
		case Unknown:
			anyUnknown = true
		}
	}
	if anyUnknown {
		return Unknown
	}
	return True
}

// DecideLit evaluates a single literal at decision time.
func (k *Knowledge) DecideLit(l Literal) Tri { return k.evalLit(l, true) }

// EvalLit evaluates a single literal using only permanent facts.
func (k *Knowledge) EvalLit(l Literal) Tri { return k.evalLit(l, false) }

// evalLit implements the paper's assimilation rules (§4.3):
//
//   - □s: ⊤ on a □s announcement; 0 once s is impossible; a promise
//     does not affect it.
//   - ¬s: 0 on a □s announcement; ⊤ once s is impossible; with
//     useHolds, ⊤ while s's actor holds s back; a promise means "not
//     occurred yet", so with useHolds it also justifies ¬s now — but
//     never a permanent rewrite, since s does occur later.
//   - ◇(s1·…·sk): 0 once any member is impossible or known
//     occurrences violate the order; ⊤ when the members occurred in
//     order, possibly with a single trailing member that is merely
//     promised.
func (k *Knowledge) evalLit(l Literal, useHolds bool) Tri {
	switch l.Kind() {
	case LitOccurred:
		switch k.Status(l.Sym()) {
		case StatusOccurred:
			return True
		case StatusImpossible:
			return False
		default:
			return Unknown
		}
	case LitNotYet:
		switch k.Status(l.Sym()) {
		case StatusOccurred:
			return False
		case StatusImpossible:
			return True
		case StatusHeld, StatusCondPromised, StatusPromised:
			if useHolds {
				return True
			}
			return Unknown
		default:
			return Unknown
		}
	case LitEventually:
		return k.evalSeq(l.Syms(), useHolds)
	}
	panic("temporal: invalid literal kind")
}

// evalSeq evaluates ◇(s1·…·sk).  Definitive falsity requires facts
// that can never be undone: an impossible member, two occurrences out
// of order, or an occurrence that postdates a member known not to have
// occurred yet (held or promised — both certify the member had not
// occurred when the later occurrence was already in the past).
// Definitive truth requires an occurred, in-order prefix followed by
// at most one promised member; conditional promises count only at
// decision time (useHolds).
func (k *Knowledge) evalSeq(syms []algebra.Symbol, useHolds bool) Tri {
	lastOcc := int64(-1)
	notYetBefore := false // an earlier member is known not-yet-occurred
	for _, s := range syms {
		switch k.Status(s) {
		case StatusImpossible:
			return False
		case StatusOccurred:
			t, _ := k.Time(s)
			if t <= lastOcc || notYetBefore {
				return False
			}
			lastOcc = t
		case StatusHeld, StatusCondPromised, StatusPromised:
			notYetBefore = true
		}
	}
	i := 0
	for i < len(syms) && k.Status(syms[i]) == StatusOccurred {
		i++
	}
	if i == len(syms) {
		return True
	}
	if i == len(syms)-1 {
		switch k.Status(syms[i]) {
		case StatusPromised:
			return True
		case StatusCondPromised:
			if useHolds {
				return True
			}
		}
	}
	return Unknown
}

// Reduce rewrites the guard using only permanent facts, implementing
// the message-driven proof rules of §4.3: a □e announcement reduces
// □e and ◇e to ⊤ and ¬e to 0; a ◇e promise reduces ◇e to ⊤ but leaves
// □e and ¬e alone; once e is impossible, □e and ◇e reduce to 0 and
// ¬e to ⊤.  Undecided literals are kept verbatim.
func (k *Knowledge) Reduce(f Formula) Formula {
	if f.IsTrue() || f.IsFalse() {
		return f
	}
	var sum []Formula
	for _, p := range f.Products() {
		parts := make([]Formula, 0, len(p.Lits()))
		dead := false
		for _, l := range p.Lits() {
			switch k.evalLit(l, false) {
			case True:
				// dropped
			case False:
				dead = true
			default:
				parts = append(parts, Lit(l))
			}
			if dead {
				break
			}
		}
		if dead {
			continue
		}
		if len(parts) == 0 {
			return TrueF()
		}
		sum = append(sum, And(parts...))
	}
	if len(sum) == 0 {
		return FalseF()
	}
	return Or(sum...)
}

// Unresolved returns the symbols whose status is still unknown among
// those a formula needs, i.e. the events the actor should inquire
// about (order sorted, deduplicated).  Holds do not count as resolved.
func (k *Knowledge) Unresolved(f Formula) []algebra.Symbol {
	seen := map[string]algebra.Symbol{}
	for _, p := range f.Products() {
		if k.evalProduct(p, true) == False {
			continue // dead product: its symbols cannot help
		}
		for _, l := range p.Lits() {
			if k.evalLit(l, true) != Unknown {
				continue
			}
			for _, s := range l.Syms() {
				st := k.Status(s)
				if st == StatusUnknown || st == StatusHeld {
					seen[s.Key()] = s
				}
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
