// Package symtab gives every ground symbol of a plan a dense integer
// id, so the runtime decides on integers and meets names only at its
// edges (the wire codec, the WAL, trace records, outcomes, HTTP and
// the CLIs).
//
// A plan's guards range over a fixed, static event set — the marking
// that lets Hildebrandt & Mukkamala's distributed DCR graphs, and
// Krivine's constraint store as a bitset, decide by bit tests.  The
// table fixes that set once: event i's positive symbol gets id 2·i and
// its complement 2·i+1, so the complement of id is id^1 and two ids
// name the same event exactly when id>>1 agrees.  Event 0 is reserved:
// the zero ID names no symbol, so a message whose sender forgot the id
// fails loudly instead of reaching event 0.
//
// A table is built once per plan and is read-only afterwards; it is
// then safe for concurrent use.
package symtab

import (
	"fmt"

	"repro/internal/algebra"
)

// ID is a plan-scoped symbol id: 2·event + bar.
type ID int32

// None is the zero ID; it names no symbol.
const None ID = 0

// Complement returns the id of the complement symbol.
func (id ID) Complement() ID { return id ^ 1 }

// Base returns the id of the event's positive symbol.
func (id ID) Base() ID { return id &^ 1 }

// Bar reports whether the id names a complement (ē).
func (id ID) Bar() bool { return id&1 != 0 }

// Event returns the id's event index.
func (id ID) Event() int { return int(id >> 1) }

// SameEvent reports whether two ids name the same event, in either
// polarity.
func (id ID) SameEvent(o ID) bool { return id>>1 == o>>1 }

// Table maps a plan's symbols to dense ids and back.
type Table struct {
	syms  []algebra.Symbol // by id; ids 0 and 1 are the reserved null event
	keys  []string         // syms[id].Key(), computed once
	byKey map[string]ID
}

// New returns a table holding only the reserved null event.
func New() *Table {
	return &Table{
		syms:  make([]algebra.Symbol, 2),
		keys:  make([]string, 2),
		byKey: map[string]ID{},
	}
}

// Add interns the symbol's event — both polarities — unless it is
// present, and returns the symbol's id.  Events are numbered in the
// order they are first added, so a plan that adds its events in a
// fixed order gets the same ids every time it is built.
func (t *Table) Add(s algebra.Symbol) ID {
	if id, ok := t.byKey[s.Key()]; ok {
		return id
	}
	base := s.Base()
	comp := base.Complement()
	id := ID(len(t.syms))
	t.syms = append(t.syms, base, comp)
	t.keys = append(t.keys, base.Key(), comp.Key())
	t.byKey[base.Key()] = id
	t.byKey[comp.Key()] = id + 1
	if s.Bar {
		return id + 1
	}
	return id
}

// Lookup resolves a symbol to its id: the one place names turn into
// ids, used where a name enters the runtime (a decoded payload, a
// request, a parsed script).
func (t *Table) Lookup(s algebra.Symbol) (ID, bool) {
	id, ok := t.byKey[s.Key()]
	return id, ok
}

// LookupKey is Lookup for a symbol's canonical text.
func (t *Table) LookupKey(key string) (ID, bool) {
	id, ok := t.byKey[key]
	return id, ok
}

// LookupName resolves a parameterless positive symbol from its name's
// bytes without allocating: where a decoder meets a name on the wire.
// It misses on anything else, so a caller falls back to Lookup.
func (t *Table) LookupName(name []byte) (ID, bool) {
	id, ok := t.byKey[string(name)]
	if !ok || id.Bar() || len(t.syms[id].Params) > 0 {
		return None, false
	}
	return id, true
}

// MustLookup is Lookup for symbols the plan is known to hold; a miss
// is a construction bug and panics.
func (t *Table) MustLookup(s algebra.Symbol) ID {
	id, ok := t.byKey[s.Key()]
	if !ok {
		panic(fmt.Sprintf("symtab: symbol %s is not in the table", s))
	}
	return id
}

// Sym returns the symbol an id names.
func (t *Table) Sym(id ID) algebra.Symbol { return t.syms[id] }

// Key returns the canonical text of the symbol an id names, without
// recomputing it.
func (t *Table) Key(id ID) string { return t.keys[id] }

// Len bounds the table's ids: every id is below Len, so a slice of
// Len entries is indexed by id.
func (t *Table) Len() int { return len(t.syms) }

// Events returns the number of events interned (the null event not
// counted).
func (t *Table) Events() int { return len(t.syms)/2 - 1 }
