// Package gprog compiles guard formulas into flat bitset programs.
//
// An actor's residual guard is a sum-of-products ℰ-formula whose
// literal universe is fixed at compile time: residuation only ever
// drops literals and products, it never invents new ones.  That makes
// the guard a finite marking problem — the same reduction DCR graphs
// apply to declarative workflows — and lets announcement delivery
// become pure bit manipulation:
//
//   - every literal of the event's two guards gets one bit position;
//     a per-instance State keeps two bitmask pairs over those
//     positions — the decide-time verdict (True/False bits, both
//     clear = Unknown) and the permanent-facts verdict,
//   - every product is a static mask over literal bits; a product is
//     False when mask∧falseBits ≠ 0, True when mask∖trueBits = 0,
//     otherwise Unknown, and the guard is the three-valued OR over
//     its products,
//   - every symbol carries a precompiled "touched" index: the literal
//     slots an announcement about it can change.  Assimilating a fact
//     recomputes only those slots.
//
// Symbols are the plan's dense ids (internal/symtab): CompileOn lowers
// a program onto a plan's table, so a State keeps one status and time
// per plan id and every mutator indexes a slice — the complement of id
// is id^1 — with no name hashed after compile.  Compile builds a
// private table for a standalone program; the Symbol-taking mutators
// resolve a name once and are the edge for callers that hold names
// (the model checker, probes and tests).
//
// The compiled Prog is immutable and shared across all instances of a
// workflow (the engine compiles once per plan); each actor owns one
// mutable State.  Guards of ≤64 literals — all of the paper's examples
// and every generated workload in the repository — run entirely in
// single-uint64 operations; larger universes spill to []uint64 words
// with the same code shape.
//
// The State mirrors temporal.Knowledge mutator-for-mutator (Observe,
// Hold, Unhold, MarkImpossible, Promise, CondPromise, ClearCond) with
// identical no-weaken rules, so its verdicts are bit-identical to the
// tree-walking evaluator's; the property tests and FuzzGuardProgram
// check that equivalence literal-by-literal and guard-by-guard.  It is
// an actor's only fact store and only evaluator: a View exposes the
// per-literal verdicts, and Residual the reduced guard whose products
// a decision walks (inquiry targets, promise waves, the holds it
// relies on) and traces print.
package gprog

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/algebra"
	"repro/internal/symtab"
	"repro/internal/temporal"
)

// PolPos and PolNeg index the two polarities of an event's program.
const (
	PolPos = 0
	PolNeg = 1
)

// litSlot is one compiled literal: its kind and the symbol ids it
// mentions (exactly one unless kind == LitEventually).
type litSlot struct {
	kind temporal.LitKind
	seq  []symtab.ID
}

// polProg is the compiled guard of one polarity: flattened product
// masks over the shared literal universe, plus the consensus-local
// symbol set whose ¬ literals may be decided with virtual holds.
type polProg struct {
	// prods holds nprods masks of words uint64 each, flattened.
	prods  []uint64
	nprods int
	// isLocal[id] marks the polarity's consensus-eliminated symbols;
	// localLits are the literal slots any of them touch.
	isLocal   []bool
	localLits []int32
	hasLocal  bool
}

// Prog is the immutable compiled program for one event's two guards.
// It is safe for concurrent use; each instance derives its own State.
type Prog struct {
	tab *symtab.Table
	// n bounds the ids the program covers: the table's Len at compile.
	n    int
	lits []litSlot
	// touched[id] lists the literal slots that mention the symbol.
	touched [][]int32
	words   int // uint64 words per literal bitmask
	pols    [2]polProg
	// litIdx maps a literal's key to its slot.
	litIdx map[string]int32
	// guards are the source guards, the residual before any fact.
	guards [2]temporal.Formula
}

// GuardInput is one polarity's guard plus its consensus-elimination
// set: the symbols whose ¬ literals the deciding actor may decide
// locally (core.EventGuard.LocalNeg), keyed by symbol key.
type GuardInput struct {
	Guard    temporal.Formula
	LocalNeg map[string]algebra.Symbol
}

// Compile lowers the two guards of one event into a standalone
// program over a private table of the symbols they mention.
func Compile(pos, neg GuardInput) *Prog {
	tab := symtab.New()
	for _, in := range []GuardInput{pos, neg} {
		for _, prod := range in.Guard.Products() {
			for _, l := range prod.Lits() {
				for _, s := range l.Syms() {
					tab.Add(s)
				}
			}
		}
		for _, k := range sortedKeys(in.LocalNeg) {
			tab.Add(in.LocalNeg[k])
		}
	}
	return CompileOn(tab, pos, neg)
}

// CompileOn lowers the two guards of one event onto a plan's symbol
// table: every id the table holds gets a status slot in the program's
// states, and the guards' literals index them directly.  Every symbol
// the guards mention must be in the table.
func CompileOn(tab *symtab.Table, pos, neg GuardInput) *Prog {
	litIdx := map[string]int32{}
	p := &Prog{tab: tab, n: tab.Len(), litIdx: litIdx}
	for _, in := range []GuardInput{pos, neg} {
		for _, prod := range in.Guard.Products() {
			for _, l := range prod.Lits() {
				p.internLit(l, litIdx)
			}
		}
	}
	p.words = (len(p.lits) + 63) / 64
	if p.words == 0 {
		p.words = 1
	}
	p.touched = make([][]int32, p.n)
	for li, slot := range p.lits {
		for _, id := range slot.seq {
			p.touched[id] = append(p.touched[id], int32(li))
		}
	}
	p.pols[PolPos] = p.compilePol(pos, litIdx)
	p.pols[PolNeg] = p.compilePol(neg, litIdx)
	p.guards = [2]temporal.Formula{pos.Guard, neg.Guard}
	return p
}

func sortedKeys(m map[string]algebra.Symbol) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (p *Prog) id(s algebra.Symbol) symtab.ID {
	id, ok := p.tab.Lookup(s)
	if !ok || int(id) >= p.n {
		panic(fmt.Sprintf("gprog: guard symbol %s is not in the plan's table", s))
	}
	return id
}

func (p *Prog) internLit(l temporal.Literal, litIdx map[string]int32) int32 {
	if li, ok := litIdx[l.Key()]; ok {
		return li
	}
	slot := litSlot{kind: l.Kind(), seq: make([]symtab.ID, len(l.Syms()))}
	for i, s := range l.Syms() {
		slot.seq[i] = p.id(s)
	}
	li := int32(len(p.lits))
	p.lits = append(p.lits, slot)
	litIdx[l.Key()] = li
	return li
}

func (p *Prog) compilePol(in GuardInput, litIdx map[string]int32) polProg {
	prods := in.Guard.Products()
	pp := polProg{
		prods:  make([]uint64, len(prods)*p.words),
		nprods: len(prods),
	}
	for pi, prod := range prods {
		base := pi * p.words
		for _, l := range prod.Lits() {
			li := litIdx[l.Key()]
			pp.prods[base+int(li>>6)] |= 1 << (li & 63)
		}
	}
	if len(in.LocalNeg) > 0 {
		pp.isLocal = make([]bool, p.n)
		seen := make(map[int32]bool)
		for _, k := range sortedKeys(in.LocalNeg) {
			id := p.id(in.LocalNeg[k])
			pp.isLocal[id] = true
			for _, li := range p.touched[id] {
				if !seen[li] {
					seen[li] = true
					pp.localLits = append(pp.localLits, li)
				}
			}
		}
		pp.hasLocal = true
	}
	return pp
}

// NeedsLocal reports whether the polarity has consensus-local symbols
// — i.e. whether Decide's localClean argument matters for it.
func (p *Prog) NeedsLocal(pol int) bool { return p.pols[pol].hasLocal }

// Table returns the symbol table the program was lowered onto.
func (p *Prog) Table() *symtab.Table { return p.tab }

// Guard returns the polarity's source guard.
func (p *Prog) Guard(pol int) temporal.Formula { return p.guards[pol] }

// Slot returns one literal slot's kind and the ids it mentions, in
// sequence order (shared; do not mutate).
func (p *Prog) Slot(li int32) (temporal.LitKind, []symtab.ID) {
	return p.lits[li].kind, p.lits[li].seq
}

// Slots appends the slots of a product of the program's literals — a
// product of Residual.
func (p *Prog) Slots(prod temporal.Product, dst []int32) []int32 {
	for _, l := range prod.Lits() {
		dst = append(dst, p.litIdx[l.Key()])
	}
	return dst
}

// literal rebuilds one slot as a temporal literal from its kind and
// ids.
func (p *Prog) literal(li int32) temporal.Literal {
	slot := &p.lits[li]
	switch slot.kind {
	case temporal.LitOccurred:
		return temporal.Occurred(p.tab.Sym(slot.seq[0]))
	case temporal.LitNotYet:
		return temporal.NotYet(p.tab.Sym(slot.seq[0]))
	}
	syms := make([]algebra.Symbol, len(slot.seq))
	for i, id := range slot.seq {
		syms[i] = p.tab.Sym(id)
	}
	return temporal.Eventually(syms...)
}

// product appends the literal slots of one product of a polarity,
// read back from its compiled mask.
func (p *Prog) product(pp *polProg, i int, dst []int32) []int32 {
	base := i * p.words
	for li := range p.lits {
		if pp.prods[base+li>>6]&(1<<(li&63)) != 0 {
			dst = append(dst, int32(li))
		}
	}
	return dst
}

// ProductLits reconstructs one polarity's products as temporal
// literals by reading the compiled masks back, word by word.  The
// model checker evaluates these instead of the source formula, so a
// lowering bug (a wrong bit, a mis-interned literal, a truncated
// spill mask) shows up as a conformance divergence rather than being
// masked by re-deriving the products from the same formula.  An empty
// product slice means the guard is unsatisfiable; a product with no
// literals is vacuously true.
func (p *Prog) ProductLits(pol int) [][]temporal.Literal {
	pp := &p.pols[pol]
	out := make([][]temporal.Literal, pp.nprods)
	var slots []int32
	for pi := 0; pi < pp.nprods; pi++ {
		slots = p.product(pp, pi, slots[:0])
		lits := []temporal.Literal{}
		for _, li := range slots {
			lits = append(lits, p.literal(li))
		}
		out[pi] = lits
	}
	return out
}

// State is one instance's mutable view of a Prog: per-symbol facts
// plus the derived per-literal verdict bitmasks.  Not safe for
// concurrent use; each actor owns one.
type State struct {
	p *Prog
	// cells holds each id's fact: its status and, for an occurrence,
	// its time.
	cells []cell
	// Decide-time verdict bits (holds and promises count) and
	// permanent-facts verdict bits, one pair per literal slot.
	decTrue   []uint64
	decFalse  []uint64
	permTrue  []uint64
	permFalse []uint64
	// Overlay scratch for consensus-local virtual holds: reused across
	// calls so Decide never allocates.
	ovTrue  []uint64
	ovFalse []uint64
	// small backs the six bitmasks on the one-word fast path.
	small [6]uint64
	// res caches each polarity's residual guard with the permanent
	// verdict bits it was built from: it is a function of those alone.
	res [2]struct {
		tru, fls []uint64
		f        temporal.Formula
	}
}

type cell struct {
	st temporal.Status
	t  int64
}

// NewState returns a fresh all-unknown State for the program.
func (p *Prog) NewState() *State {
	s := new(State)
	p.InitState(s)
	return s
}

// InitState makes s a fresh all-unknown state of the program, in
// place.  A state is built per actor per instance, so its allocation
// count is paid on every instance: a holder that embeds its State (an
// actor does) pays one allocation, the cells, on the one-word fast
// path, where the six bitmasks live in the state itself; larger
// programs cut them from one slab.  A state must not be copied once
// initialised.
func (p *Prog) InitState(s *State) {
	*s = State{p: p, cells: make([]cell, p.n)}
	w := p.words
	slab := s.small[:]
	if w > 1 {
		slab = make([]uint64, 6*w)
	}
	cut := func(i int) []uint64 { return slab[i*w : (i+1)*w : (i+1)*w] }
	s.decTrue, s.decFalse = cut(0), cut(1)
	s.permTrue, s.permFalse = cut(2), cut(3)
	s.ovTrue, s.ovFalse = cut(4), cut(5)
}

// Prog returns the program the state was derived from.
func (s *State) Prog() *Prog { return s.p }

// Reset returns the state to all-unknown without reallocating, so one
// State can replay many traces (the model checker's per-trace replay).
func (s *State) Reset() {
	clear(s.cells)
	for w := 0; w < s.p.words; w++ {
		s.decTrue[w], s.decFalse[w] = 0, 0
		s.permTrue[w], s.permFalse[w] = 0, 0
	}
}

// Has reports whether the id has a slot in the state: every id of the
// table the program was lowered onto, as the table stood at compile.
func (s *State) Has(id symtab.ID) bool { return id > symtab.None && int(id) < len(s.cells) }

// ObserveID mirrors Knowledge.Observe: the symbol occurred at t and
// its complement became impossible (both unconditional).  Like every
// ID mutator it reports whether the id has a slot (Has); a false
// return recorded nothing.
func (s *State) ObserveID(id symtab.ID, t int64) bool {
	if !s.Has(id) {
		return false
	}
	s.cells[id].st = temporal.StatusOccurred
	s.cells[id].t = t
	s.recompute(id)
	s.cells[id^1].st = temporal.StatusImpossible
	s.recompute(id ^ 1)
	return true
}

// MarkImpossibleID mirrors Knowledge.MarkImpossible: occurrence facts
// are never overwritten; the complement is untouched.
func (s *State) MarkImpossibleID(id symtab.ID) bool {
	if !s.Has(id) {
		return false
	}
	if s.cells[id].st != temporal.StatusOccurred {
		s.cells[id].st = temporal.StatusImpossible
		s.recompute(id)
	}
	return true
}

// HoldID mirrors Knowledge.Hold: only unknown symbols become held.
func (s *State) HoldID(id symtab.ID) bool {
	if !s.Has(id) {
		return false
	}
	if s.cells[id].st == temporal.StatusUnknown {
		s.cells[id].st = temporal.StatusHeld
		s.recompute(id)
	}
	return true
}

// UnholdID mirrors Knowledge.Unhold: only held symbols revert.
func (s *State) UnholdID(id symtab.ID) bool {
	if !s.Has(id) {
		return false
	}
	if s.cells[id].st == temporal.StatusHeld {
		s.cells[id].st = temporal.StatusUnknown
		s.recompute(id)
	}
	return true
}

// CondPromiseID mirrors Knowledge.CondPromise: upgrades unknown or
// held symbols only.
func (s *State) CondPromiseID(id symtab.ID) {
	if !s.Has(id) {
		return
	}
	if st := s.cells[id].st; st != temporal.StatusUnknown && st != temporal.StatusHeld {
		return
	}
	s.cells[id].st = temporal.StatusCondPromised
	s.recompute(id)
}

// StatusID returns what the state knows about a symbol, and whether
// the id has a slot at all.
func (s *State) StatusID(id symtab.ID) (temporal.Status, bool) {
	if !s.Has(id) {
		return temporal.StatusUnknown, false
	}
	return s.cells[id].st, true
}

// lookup resolves a name to its id for the Symbol-taking edge below;
// None when the table does not hold it.
func (s *State) lookup(sym algebra.Symbol) symtab.ID {
	id, _ := s.p.tab.Lookup(sym)
	return id
}

// Observe is ObserveID for a symbol given by name.
func (s *State) Observe(sym algebra.Symbol, t int64) bool { return s.ObserveID(s.lookup(sym), t) }

// Facts calls fn for every id with a known status, in id order; the
// time is an occurrence's and zero otherwise.
func (s *State) Facts(fn func(id symtab.ID, st temporal.Status, at int64)) {
	for id := 2; id < len(s.cells); id++ {
		c := s.cells[id]
		if c.st == temporal.StatusUnknown {
			continue
		}
		if c.st != temporal.StatusOccurred {
			c.t = 0
		}
		fn(symtab.ID(id), c.st, c.t)
	}
}

// LoadPermanent makes s hold src's permanent facts — occurrences,
// impossibilities and binding promises — and nothing transient: the
// view a promise's soundness is judged in, since holds and conditional
// promises may lapse before the promise is discharged.  Both states
// must be of one program.
func (s *State) LoadPermanent(src *State) {
	for i, c := range src.cells {
		if c.st == temporal.StatusHeld || c.st == temporal.StatusCondPromised {
			c = cell{}
		}
		s.cells[i] = c
	}
	for li := range s.p.lits {
		s.recomputeLit(int32(li))
	}
}

// recompute refreshes the verdict bits of every literal the symbol
// touches.
func (s *State) recompute(id symtab.ID) {
	for _, li := range s.p.touched[id] {
		s.recomputeLit(li)
	}
}

func (s *State) recomputeLit(li int32) {
	slot := &s.p.lits[li]
	setTri(s.decTrue, s.decFalse, li, s.litVerdict(slot, true, nil))
	setTri(s.permTrue, s.permFalse, li, s.litVerdict(slot, false, nil))
}

func setTri(tru, fls []uint64, li int32, v temporal.Tri) {
	w, b := li>>6, uint64(1)<<(li&63)
	tru[w] &^= b
	fls[w] &^= b
	switch v {
	case temporal.True:
		tru[w] |= b
	case temporal.False:
		fls[w] |= b
	}
}

// stat reads a symbol's status, applying the virtual-hold overlay of
// a consensus-local decision when local is non-nil: still-unknown
// local symbols count as held.
func (s *State) stat(id symtab.ID, local []bool) temporal.Status {
	st := s.cells[id].st
	if st == temporal.StatusUnknown && local != nil && local[id] {
		return temporal.StatusHeld
	}
	return st
}

// litVerdict mirrors Knowledge.evalLit / evalSeq case-for-case.
func (s *State) litVerdict(slot *litSlot, useHolds bool, local []bool) temporal.Tri {
	switch slot.kind {
	case temporal.LitOccurred:
		switch s.stat(slot.seq[0], local) {
		case temporal.StatusOccurred:
			return temporal.True
		case temporal.StatusImpossible:
			return temporal.False
		}
		return temporal.Unknown
	case temporal.LitNotYet:
		switch s.stat(slot.seq[0], local) {
		case temporal.StatusOccurred:
			return temporal.False
		case temporal.StatusImpossible:
			return temporal.True
		case temporal.StatusHeld, temporal.StatusCondPromised, temporal.StatusPromised:
			if useHolds {
				return temporal.True
			}
		}
		return temporal.Unknown
	}
	// ◇(s1·…·sk), mirroring Knowledge.evalSeq: definitive falsity needs
	// an impossible member, out-of-order occurrences, or an occurrence
	// postdating a known not-yet member; definitive truth needs an
	// occurred in-order prefix with at most one trailing promise.
	lastOcc := int64(-1)
	notYetBefore := false
	for _, si := range slot.seq {
		switch s.stat(si, local) {
		case temporal.StatusImpossible:
			return temporal.False
		case temporal.StatusOccurred:
			t := s.cells[si].t
			if t <= lastOcc || notYetBefore {
				return temporal.False
			}
			lastOcc = t
		case temporal.StatusHeld, temporal.StatusCondPromised, temporal.StatusPromised:
			notYetBefore = true
		}
	}
	i := 0
	for i < len(slot.seq) && s.stat(slot.seq[i], local) == temporal.StatusOccurred {
		i++
	}
	if i == len(slot.seq) {
		return temporal.True
	}
	if i == len(slot.seq)-1 {
		switch s.stat(slot.seq[i], local) {
		case temporal.StatusPromised:
			return temporal.True
		case temporal.StatusCondPromised:
			if useHolds {
				return temporal.True
			}
		}
	}
	return temporal.Unknown
}

// A View is one polarity's literal verdicts at one moment: at decision
// time (holds and promises count), or over the permanent facts only.
// It reads the state's bitmasks in place, so it is valid until the
// state changes or builds another decision view.
type View struct {
	s        *State
	pp       *polProg
	tru, fls []uint64
}

// DecideView is the polarity's decision-time view.  When localClean is
// true and the polarity has consensus-local symbols, still-unknown
// local symbols are virtually held — f cannot have occurred without
// the deciding actor's cooperation — in preallocated scratch, so the
// view never allocates.
func (s *State) DecideView(pol int, localClean bool) View {
	pp := &s.p.pols[pol]
	v := View{s: s, pp: pp, tru: s.decTrue, fls: s.decFalse}
	if pp.hasLocal && localClean {
		copy(s.ovTrue, s.decTrue)
		copy(s.ovFalse, s.decFalse)
		for _, li := range pp.localLits {
			setTri(s.ovTrue, s.ovFalse, li, s.litVerdict(&s.p.lits[li], true, pp.isLocal))
		}
		v.tru, v.fls = s.ovTrue, s.ovFalse
	}
	return v
}

// permView is the polarity's view over permanent facts only.
func (s *State) permView(pol int) View {
	return View{s: s, pp: &s.p.pols[pol], tru: s.permTrue, fls: s.permFalse}
}

// Decide evaluates one polarity's guard at decision time (DecideView).
func (s *State) Decide(pol int, localClean bool) temporal.Tri {
	return s.DecideView(pol, localClean).Verdict()
}

// Eval evaluates one polarity's guard over permanent facts only — the
// verdict that decides rejection (Eval == False ⟺ the residual guard
// is 0).
func (s *State) Eval(pol int) temporal.Tri { return s.permView(pol).Verdict() }

// Verdict is the guard's three-valued verdict in the view.
func (v View) Verdict() temporal.Tri { return v.s.p.evalProds(v.pp, v.tru, v.fls) }

// Lit is one literal slot's verdict in the view.
func (v View) Lit(li int32) temporal.Tri {
	w, b := li>>6, uint64(1)<<(li&63)
	switch {
	case v.tru[w]&b != 0:
		return temporal.True
	case v.fls[w]&b != 0:
		return temporal.False
	}
	return temporal.Unknown
}

func (v View) falsified(prod []int32) bool {
	for _, li := range prod {
		if v.Lit(li) == temporal.False {
			return true
		}
	}
	return false
}

// Residual is the polarity's guard reduced by the permanent facts,
// exactly as Knowledge.Reduce rewrites it: every product no fact
// falsified, without the literals the facts made true, normalized
// (absorption, consensus) by the formula constructors.  Its products
// are the ones a decision walks — inquiry targets, hold trimming,
// promise waves — and traces print it.
func (s *State) Residual(pol int) temporal.Formula {
	r := &s.res[pol]
	if !slices.Equal(r.tru, s.permTrue) || !slices.Equal(r.fls, s.permFalse) {
		r.f = s.reduce(pol)
		r.tru = append(r.tru[:0], s.permTrue...)
		r.fls = append(r.fls[:0], s.permFalse...)
	}
	return r.f
}

func (s *State) reduce(pol int) temporal.Formula {
	v := s.permView(pol)
	var sum []temporal.Formula
	var slots [64]int32
	for i := 0; i < v.pp.nprods; i++ {
		prod := s.p.product(v.pp, i, slots[:0])
		if v.falsified(prod) {
			continue
		}
		var parts []temporal.Formula
		for _, li := range prod {
			if v.Lit(li) == temporal.Unknown {
				parts = append(parts, temporal.Lit(s.p.literal(li)))
			}
		}
		if len(parts) == 0 {
			return temporal.TrueF()
		}
		sum = append(sum, temporal.And(parts...))
	}
	return temporal.Or(sum...)
}

// Awaited appends the ids a decision still waits on — the events to
// inquire about: in every product of the polarity's residual guard
// that the view does not falsify, the unknown or held members of each
// literal the view leaves unknown.  The view may be another state's of
// the same program — a hypothesis judged against this state's
// residual.  The result may repeat an id and is unsorted.
func (s *State) Awaited(pol int, v View, dst []symtab.ID) []symtab.ID {
	var slots [64]int32
	for _, prod := range s.Residual(pol).Products() {
		lits := s.p.Slots(prod, slots[:0])
		if v.falsified(lits) {
			continue
		}
		for _, li := range lits {
			if v.Lit(li) != temporal.Unknown {
				continue
			}
			for _, id := range s.p.lits[li].seq {
				if st := v.s.cells[id].st; st == temporal.StatusUnknown || st == temporal.StatusHeld {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

// ResidualNotYet appends the symbol of every ¬ literal of the residual
// guard: the events whose holds a decision relies on.
func (s *State) ResidualNotYet(pol int, dst []symtab.ID) []symtab.ID {
	for _, prod := range s.Residual(pol).Products() {
		for _, l := range prod.Lits() {
			if l.Kind() == temporal.LitNotYet {
				dst = append(dst, s.p.lits[s.p.litIdx[l.Key()]].seq[0])
			}
		}
	}
	return dst
}

// EvalAsOf evaluates one polarity's guard as of cutoff time t over the
// facts observed so far: □s and ¬s are judged against occurrences
// strictly before t (holds, promises, and conditional promises are
// ignored — this is the permanent-facts view at an earlier instant),
// while ◇ sequences are judged over the whole observed history,
// matching Formula.EvalAt's index-independent reading of ◇.  With
// every symbol of the program's universe resolved — occurred or
// impossible — the verdict is definite; unresolved symbols yield
// Unknown.  The verdict lands in the overlay scratch, so EvalAsOf
// does not disturb the decide-time or permanent bitmasks.
func (s *State) EvalAsOf(pol int, t int64) temporal.Tri {
	for li := range s.p.lits {
		setTri(s.ovTrue, s.ovFalse, int32(li), s.litAsOf(&s.p.lits[li], t))
	}
	return s.p.evalProds(&s.p.pols[pol], s.ovTrue, s.ovFalse)
}

// litAsOf is litVerdict with the clock stopped at t: occurrence facts
// before t count, later ones read as not-yet-at-t, and ◇ ignores the
// cutoff entirely.
func (s *State) litAsOf(slot *litSlot, t int64) temporal.Tri {
	switch slot.kind {
	case temporal.LitOccurred:
		switch s.cells[slot.seq[0]].st {
		case temporal.StatusOccurred:
			if s.cells[slot.seq[0]].t < t {
				return temporal.True
			}
			return temporal.False
		case temporal.StatusImpossible:
			return temporal.False
		}
		return temporal.Unknown
	case temporal.LitNotYet:
		switch s.cells[slot.seq[0]].st {
		case temporal.StatusOccurred:
			if s.cells[slot.seq[0]].t < t {
				return temporal.False
			}
			return temporal.True
		case temporal.StatusImpossible:
			return temporal.True
		}
		return temporal.Unknown
	}
	lastOcc := int64(math.MinInt64)
	unknown := false
	for _, si := range slot.seq {
		switch s.cells[si].st {
		case temporal.StatusImpossible:
			return temporal.False
		case temporal.StatusOccurred:
			if s.cells[si].t <= lastOcc {
				return temporal.False
			}
			lastOcc = s.cells[si].t
		default:
			unknown = true
		}
	}
	if unknown {
		return temporal.Unknown
	}
	return temporal.True
}

// evalProds is the three-valued OR over product masks: a product is
// False when it intersects the false bits, True when its mask is
// covered by the true bits, Unknown otherwise.
func (p *Prog) evalProds(pp *polProg, tru, fls []uint64) temporal.Tri {
	if p.words == 1 {
		// ≤64-literal fast path: whole guard in single-word operations.
		t0, f0 := tru[0], fls[0]
		anyUnknown := false
		for _, m := range pp.prods {
			if m&f0 != 0 {
				continue
			}
			if m&^t0 == 0 {
				return temporal.True
			}
			anyUnknown = true
		}
		if anyUnknown {
			return temporal.Unknown
		}
		return temporal.False
	}
	anyUnknown := false
	w := p.words
	for pi := 0; pi < pp.nprods; pi++ {
		base := pi * w
		isFalse, isTrue := false, true
		for i := 0; i < w; i++ {
			m := pp.prods[base+i]
			if m&fls[i] != 0 {
				isFalse = true
				break
			}
			if m&^tru[i] != 0 {
				isTrue = false
			}
		}
		if isFalse {
			continue
		}
		if isTrue {
			return temporal.True
		}
		anyUnknown = true
	}
	if anyUnknown {
		return temporal.Unknown
	}
	return temporal.False
}
