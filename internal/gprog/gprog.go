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
// check that equivalence literal-by-literal and guard-by-guard.
package gprog

import (
	"math"

	"repro/internal/algebra"
	"repro/internal/temporal"
)

// PolPos and PolNeg index the two polarities of an event's program.
const (
	PolPos = 0
	PolNeg = 1
)

// litSlot is one compiled literal: its kind and the dense symbol
// indices it mentions (exactly one unless kind == LitEventually).
type litSlot struct {
	kind temporal.LitKind
	seq  []int32
}

// polProg is the compiled guard of one polarity: flattened product
// masks over the shared literal universe, plus the consensus-local
// symbol set whose ¬ literals may be decided with virtual holds.
type polProg struct {
	// prods holds nprods masks of words uint64 each, flattened.
	prods  []uint64
	nprods int
	// isLocal[symIdx] marks the polarity's consensus-eliminated
	// symbols; localLits are the literal slots any of them touch.
	isLocal   []bool
	localLits []int32
	hasLocal  bool
}

// Prog is the immutable compiled program for one event's two guards.
// It is safe for concurrent use; each instance derives its own State.
type Prog struct {
	syms   []algebra.Symbol
	symIdx map[string]int32
	comp   []int32 // symIdx → complement's symIdx (universe is closed under complement)
	lits   []litSlot
	// touched[symIdx] lists the literal slots that mention the symbol.
	touched [][]int32
	words   int // uint64 words per literal bitmask
	pols    [2]polProg
}

// GuardInput is one polarity's guard plus its consensus-elimination
// set (actor.GuardSpec without the import cycle).
type GuardInput struct {
	Guard    temporal.Formula
	LocalNeg map[string]algebra.Symbol
}

// Compile lowers the two guards of one event into a flat program.
func Compile(pos, neg GuardInput) *Prog {
	p := &Prog{symIdx: map[string]int32{}}
	litIdx := map[string]int32{}
	for _, in := range []GuardInput{pos, neg} {
		for _, prod := range in.Guard.Products() {
			for _, l := range prod.Lits() {
				p.internLit(l, litIdx)
			}
		}
		for _, s := range in.LocalNeg {
			p.internSym(s)
		}
	}
	p.words = (len(p.lits) + 63) / 64
	if p.words == 0 {
		p.words = 1
	}
	p.touched = make([][]int32, len(p.syms))
	for li, slot := range p.lits {
		for _, si := range slot.seq {
			p.touched[si] = append(p.touched[si], int32(li))
		}
	}
	p.pols[PolPos] = p.compilePol(pos, litIdx)
	p.pols[PolNeg] = p.compilePol(neg, litIdx)
	return p
}

func (p *Prog) internSym(s algebra.Symbol) int32 {
	if si, ok := p.symIdx[s.Key()]; ok {
		return si
	}
	// Intern the symbol and its complement together so the universe is
	// closed under complement and Observe never needs to construct a
	// complement symbol at runtime.
	si := int32(len(p.syms))
	c := s.Complement()
	p.syms = append(p.syms, s, c)
	p.symIdx[s.Key()] = si
	p.symIdx[c.Key()] = si + 1
	p.comp = append(p.comp, si+1, si)
	return si
}

func (p *Prog) internLit(l temporal.Literal, litIdx map[string]int32) int32 {
	if li, ok := litIdx[l.Key()]; ok {
		return li
	}
	slot := litSlot{kind: l.Kind(), seq: make([]int32, len(l.Syms()))}
	for i, s := range l.Syms() {
		slot.seq[i] = p.internSym(s)
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
		pp.isLocal = make([]bool, len(p.syms))
		seen := make(map[int32]bool)
		for _, s := range in.LocalNeg {
			si := p.symIdx[s.Key()]
			pp.isLocal[si] = true
			for _, li := range p.touched[si] {
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

// Lits returns the number of literal slots (for tests and stats).
func (p *Prog) Lits() int { return len(p.lits) }

// Words returns the number of uint64 words per literal bitmask: 1 on
// the fast path, more once the literal universe spills past 64 slots.
func (p *Prog) Words() int { return p.words }

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
	for pi := 0; pi < pp.nprods; pi++ {
		base := pi * p.words
		lits := []temporal.Literal{}
		for li := 0; li < len(p.lits); li++ {
			if pp.prods[base+(li>>6)]&(1<<(uint(li)&63)) == 0 {
				continue
			}
			slot := &p.lits[li]
			switch slot.kind {
			case temporal.LitOccurred:
				lits = append(lits, temporal.Occurred(p.syms[slot.seq[0]]))
			case temporal.LitNotYet:
				lits = append(lits, temporal.NotYet(p.syms[slot.seq[0]]))
			default:
				syms := make([]algebra.Symbol, len(slot.seq))
				for i, si := range slot.seq {
					syms[i] = p.syms[si]
				}
				lits = append(lits, temporal.Eventually(syms...))
			}
		}
		out[pi] = lits
	}
	return out
}

// Syms returns the symbol universe size (for tests and stats).
func (p *Prog) Syms() int { return len(p.syms) }

// State is one instance's mutable view of a Prog: per-symbol statuses
// plus the derived per-literal verdict bitmasks.  Not safe for
// concurrent use; each actor owns one.
type State struct {
	p      *Prog
	status []temporal.Status
	times  []int64
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
}

// NewState returns a fresh all-unknown State for the program.  The
// six bitmasks are cut from one slab: a state is built per actor per
// instance, so its allocation count is paid on every instance.
func (p *Prog) NewState() *State {
	w := p.words
	slab := make([]uint64, 6*w)
	cut := func(i int) []uint64 { return slab[i*w : (i+1)*w : (i+1)*w] }
	return &State{
		p:         p,
		status:    make([]temporal.Status, len(p.syms)),
		times:     make([]int64, len(p.syms)),
		decTrue:   cut(0),
		decFalse:  cut(1),
		permTrue:  cut(2),
		permFalse: cut(3),
		ovTrue:    cut(4),
		ovFalse:   cut(5),
	}
}

// Prog returns the program the state was derived from.
func (s *State) Prog() *Prog { return s.p }

// Reset returns the state to all-unknown without reallocating, so one
// State can replay many traces (the model checker's per-trace replay).
func (s *State) Reset() {
	for i := range s.status {
		s.status[i] = temporal.StatusUnknown
		s.times[i] = 0
	}
	for w := 0; w < s.p.words; w++ {
		s.decTrue[w], s.decFalse[w] = 0, 0
		s.permTrue[w], s.permFalse[w] = 0, 0
	}
}

// index resolves a symbol to its dense index, or -1 when the symbol
// is irrelevant to either guard.  Key() is allocation-free for
// unparametrized symbols, so this is the only per-message cost before
// pure bit manipulation takes over.
func (s *State) index(sym algebra.Symbol) int32 {
	if si, ok := s.p.symIdx[sym.Key()]; ok {
		return si
	}
	return -1
}

// Observe mirrors Knowledge.Observe: the symbol occurred at t and its
// complement became impossible (both unconditional).
func (s *State) Observe(sym algebra.Symbol, t int64) {
	si := s.index(sym)
	if si < 0 {
		return
	}
	s.status[si] = temporal.StatusOccurred
	s.times[si] = t
	s.recompute(si)
	ci := s.p.comp[si]
	s.status[ci] = temporal.StatusImpossible
	s.recompute(ci)
}

// MarkImpossible mirrors Knowledge.MarkImpossible: occurrence facts
// are never overwritten; the complement is untouched.
func (s *State) MarkImpossible(sym algebra.Symbol) {
	si := s.index(sym)
	if si < 0 || s.status[si] == temporal.StatusOccurred {
		return
	}
	s.status[si] = temporal.StatusImpossible
	s.recompute(si)
}

// Hold mirrors Knowledge.Hold: only unknown symbols become held.
func (s *State) Hold(sym algebra.Symbol) {
	si := s.index(sym)
	if si < 0 || s.status[si] != temporal.StatusUnknown {
		return
	}
	s.status[si] = temporal.StatusHeld
	s.recompute(si)
}

// Unhold mirrors Knowledge.Unhold: only held symbols revert.
func (s *State) Unhold(sym algebra.Symbol) {
	si := s.index(sym)
	if si < 0 || s.status[si] != temporal.StatusHeld {
		return
	}
	s.status[si] = temporal.StatusUnknown
	s.recompute(si)
}

// Promise mirrors Knowledge.Promise: a binding ◇ promise, never
// weakening occurrence facts; the complement becomes impossible.
func (s *State) Promise(sym algebra.Symbol) {
	si := s.index(sym)
	if si < 0 {
		return
	}
	if st := s.status[si]; st == temporal.StatusOccurred || st == temporal.StatusImpossible {
		return
	}
	s.status[si] = temporal.StatusPromised
	s.recompute(si)
	ci := s.p.comp[si]
	s.status[ci] = temporal.StatusImpossible
	s.recompute(ci)
}

// CondPromise mirrors Knowledge.CondPromise: upgrades unknown or held
// symbols only.
func (s *State) CondPromise(sym algebra.Symbol) {
	si := s.index(sym)
	if si < 0 {
		return
	}
	if st := s.status[si]; st != temporal.StatusUnknown && st != temporal.StatusHeld {
		return
	}
	s.status[si] = temporal.StatusCondPromised
	s.recompute(si)
}

// ClearCond mirrors Knowledge.ClearCond.
func (s *State) ClearCond(sym algebra.Symbol) {
	si := s.index(sym)
	if si < 0 || s.status[si] != temporal.StatusCondPromised {
		return
	}
	s.status[si] = temporal.StatusUnknown
	s.recompute(si)
}

// Sync rebuilds the whole state from a Knowledge — the resynchronization
// point for paths that mutate Knowledge wholesale (WAL snapshot
// restore).  Statuses not represented in the program's universe are
// ignored; they cannot affect either guard.
func (s *State) Sync(k *temporal.Knowledge) {
	for si, sym := range s.p.syms {
		st := k.Status(sym)
		s.status[si] = st
		if st == temporal.StatusOccurred {
			t, _ := k.Time(sym)
			s.times[si] = t
		} else {
			s.times[si] = 0
		}
	}
	for li := range s.p.lits {
		s.recomputeLit(int32(li))
	}
}

// recompute refreshes the verdict bits of every literal the symbol
// touches.
func (s *State) recompute(si int32) {
	for _, li := range s.p.touched[si] {
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
// local symbols count as held, exactly as actor.localView holds them.
func (s *State) stat(si int32, local []bool) temporal.Status {
	st := s.status[si]
	if st == temporal.StatusUnknown && local != nil && local[si] {
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
			t := s.times[si]
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

// Decide evaluates one polarity's guard at decision time.  When
// localClean is true and the polarity has consensus-local symbols,
// still-unknown local symbols are virtually held — the exact view
// actor.localView builds, but into preallocated scratch instead of a
// cloned knowledge map.
func (s *State) Decide(pol int, localClean bool) temporal.Tri {
	pp := &s.p.pols[pol]
	tru, fls := s.decTrue, s.decFalse
	if pp.hasLocal && localClean {
		copy(s.ovTrue, s.decTrue)
		copy(s.ovFalse, s.decFalse)
		for _, li := range pp.localLits {
			setTri(s.ovTrue, s.ovFalse, li, s.litVerdict(&s.p.lits[li], true, pp.isLocal))
		}
		tru, fls = s.ovTrue, s.ovFalse
	}
	return s.evalProds(pp, tru, fls)
}

// Eval evaluates one polarity's guard over permanent facts only — the
// verdict that decides rejection (Eval == False ⟺ the residual guard
// reduces to 0).
func (s *State) Eval(pol int) temporal.Tri {
	pp := &s.p.pols[pol]
	return s.evalProds(pp, s.permTrue, s.permFalse)
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
	return s.evalProds(&s.p.pols[pol], s.ovTrue, s.ovFalse)
}

// litAsOf is litVerdict with the clock stopped at t: occurrence facts
// before t count, later ones read as not-yet-at-t, and ◇ ignores the
// cutoff entirely.
func (s *State) litAsOf(slot *litSlot, t int64) temporal.Tri {
	switch slot.kind {
	case temporal.LitOccurred:
		switch s.status[slot.seq[0]] {
		case temporal.StatusOccurred:
			if s.times[slot.seq[0]] < t {
				return temporal.True
			}
			return temporal.False
		case temporal.StatusImpossible:
			return temporal.False
		}
		return temporal.Unknown
	case temporal.LitNotYet:
		switch s.status[slot.seq[0]] {
		case temporal.StatusOccurred:
			if s.times[slot.seq[0]] < t {
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
		switch s.status[si] {
		case temporal.StatusImpossible:
			return temporal.False
		case temporal.StatusOccurred:
			if s.times[si] <= lastOcc {
				return temporal.False
			}
			lastOcc = s.times[si]
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
func (s *State) evalProds(pp *polProg, tru, fls []uint64) temporal.Tri {
	if s.p.words == 1 {
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
	w := s.p.words
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
