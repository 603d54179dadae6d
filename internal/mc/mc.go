package mc

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/gprog"
	"repro/internal/temporal"
)

// Engine identifiers in counts and divergence verdicts.
const (
	EngRef  = 0 // reference 𝒯-semantics interpreter (ref.go)
	EngTree = 1 // tree-walking guards from internal/core + internal/temporal
	EngProg = 2 // flat bitset programs from internal/gprog
)

// Options bounds a check run.  Zero values select the defaults.
type Options struct {
	// MaxEvents caps the universe; a workflow with more events is not
	// checked: Report.SkipReason says so explicitly (default 12, hard
	// ceiling 16 so a fired-set fits one uint32 over both polarities).
	MaxEvents int
	// MaxStates caps the memo table (default 4,000,000); exceeding it
	// is an error, never a silent truncation.
	MaxStates int
	// NaiveLimit enables the brute-force cross-check layer for
	// universes of at most this many events: every maximal trace is
	// additionally checked one by one — fresh interpreter per trace,
	// per-position Formula.EvalAt, core.GeneratesCompiled, and a
	// gprog State.EvalAsOf replay — and the per-engine admitted
	// counts must reproduce the DAG's.  Default 6; -1 disables.
	NaiveLimit int
	// Budget caps wall-clock time (default 120s); exceeding it is an
	// error, never a silent truncation.
	Budget time.Duration
	// TreeGuard and ProgGuard, when non-nil, rewrite an event's guard
	// before it is handed to the respective engine.  Test-only hooks:
	// an intentional mutation here must surface as a divergence,
	// proving the checker can fail.
	TreeGuard func(sym algebra.Symbol, g temporal.Formula) temporal.Formula
	ProgGuard func(sym algebra.Symbol, g temporal.Formula) temporal.Formula
}

func (o Options) withDefaults() Options {
	if o.MaxEvents == 0 {
		o.MaxEvents = 12
	}
	if o.MaxEvents > 16 {
		o.MaxEvents = 16
	}
	if o.MaxStates == 0 {
		o.MaxStates = 4_000_000
	}
	if o.NaiveLimit == 0 {
		o.NaiveLimit = 6
	}
	if o.Budget == 0 {
		o.Budget = 120 * time.Second
	}
	return o
}

// Divergence is one admission disagreement: a maximal trace together
// with each engine's verdict.  The trace is minimal in the canonical
// symbol order of the enumeration (bases sorted by key, positive
// polarity before complement).
type Divergence struct {
	Trace    algebra.Trace
	Verdicts [3]bool // indexed by EngRef, EngTree, EngProg
}

func (d *Divergence) String() string {
	return fmt.Sprintf("trace %v: ref=%v tree=%v prog=%v",
		d.Trace, d.Verdicts[EngRef], d.Verdicts[EngTree], d.Verdicts[EngProg])
}

// ReplayCmd renders the wfrun invocation that re-drives the
// counterexample's announcement order outside the test harness.
func (d *Divergence) ReplayCmd(specPath string) string {
	keys := make([]string, len(d.Trace))
	for i, s := range d.Trace {
		keys[i] = s.Key()
	}
	return fmt.Sprintf("wfrun -sched distributed -order %s %s", joinComma(keys), specPath)
}

func joinComma(xs []string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += ","
		}
		out += x
	}
	return out
}

// Report is the outcome of one exhaustive check.
type Report struct {
	Name      string
	Events    int    // universe size (bases)
	MaxTraces uint64 // n!·2ⁿ — what path enumeration would have cost
	States    int    // memoized DAG states actually explored
	MemoHits  uint64
	// Admitted counts maximal traces each engine admits; all three are
	// equal exactly when Divergence is nil.
	Admitted [3]uint64
	// Divergence is the first (canonical-order minimal) disagreement,
	// or nil.
	Divergence *Divergence
	// NaiveChecked counts traces the brute-force layer verified
	// one by one (0 when the universe exceeded Options.NaiveLimit).
	NaiveChecked uint64
	Elapsed      time.Duration
	// SkipReason is non-empty when the workflow was not checked at
	// all (universe over Options.MaxEvents).
	SkipReason string
}

// diaDead marks a ◇ automaton that can no longer complete.
const diaDead = 0xFF

// diaAuto is one distinct ◇(s1·…·sk) literal, shared across guards:
// its state in a checker node is the count of members consumed so far
// (in order), or diaDead once a member's event resolved the other way
// or out of order.
type diaAuto struct {
	seq []uint16 // member symbol ids, in sequence order
}

// prodSpec is one guard product lowered onto the checker's universe:
// the □ symbols that must have fired before the event (occ), the ¬
// symbols that must not have (not), and the ◇ literals that must be
// true over the whole trace (dias).
type prodSpec struct {
	occ, not uint32
	dias     []uint16
}

// guardSpec is one event's guard for one engine.
type guardSpec struct {
	top   bool
	prods []prodSpec
}

// oblig is a pending whole-trace obligation contributed by one fired
// event: at the leaf, at least one product — a set of still-undecided
// ◇ ids — must have every member ◇ complete.  Products and ids are
// kept sorted and deduplicated so equal obligations encode equally.
type oblig [][]uint16

// checker holds the immutable per-workflow tables.
type checker struct {
	name   string
	w      *core.Workflow
	c      *core.Compiled
	opt    Options
	bases  []algebra.Symbol
	syms   []algebra.Symbol // 2n: syms[2i]=bases[i], syms[2i+1]=its complement
	symID  map[string]int
	dias   []diaAuto
	diaID  map[string]int
	guards [2][]guardSpec // [tree|prog engine offset][symbol id]; EngTree-1 / EngProg-1
	// pstates holds one reusable gprog state per base for the naive
	// layer's whole-trace replay (nil until buildGuards).
	pstates []*gprog.State
	deps    []*depAuto
	memo    map[string]*node
	hits    uint64
	spent   func() bool // budget probe
	err     error
}

// node is the memoized result below one canonical state: how many
// admitted completions each engine counts, and — when some leaf below
// disagrees — the canonical-order-minimal divergent suffix.
type node struct {
	counts    [3]uint64
	diverged  bool
	badSuffix []uint16
	verdicts  [3]bool
}

// Check exhaustively verifies one workflow.  A non-nil error means
// the check could not be completed (budget, state cap, oversized
// dependency); a completed check with a divergence returns a normal
// Report with Report.Divergence set.
func Check(name string, w *core.Workflow, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	start := time.Now()
	bases := w.Alphabet().Bases()
	sort.Slice(bases, func(i, j int) bool { return bases[i].Less(bases[j]) })
	rep := &Report{Name: name, Events: len(bases)}
	if len(bases) > opt.MaxEvents {
		rep.SkipReason = fmt.Sprintf("%d events exceed the %d-event bound", len(bases), opt.MaxEvents)
		return rep, nil
	}
	rep.MaxTraces = maxTraceCount(len(bases))

	c, err := core.Compile(w)
	if err != nil {
		return nil, fmt.Errorf("mc: compile: %w", err)
	}
	ck := &checker{
		name: name, w: w, c: c, opt: opt,
		bases: bases,
		symID: map[string]int{},
		diaID: map[string]int{},
		memo:  map[string]*node{},
	}
	deadline := start.Add(opt.Budget)
	ck.spent = func() bool { return time.Now().After(deadline) }
	for _, b := range bases {
		ck.symID[b.Key()] = len(ck.syms)
		ck.syms = append(ck.syms, b)
		nb := b.Complement()
		ck.symID[nb.Key()] = len(ck.syms)
		ck.syms = append(ck.syms, nb)
	}
	for i, d := range w.Deps {
		da, err := buildDepAuto(w.Name(i), d)
		if err != nil {
			return nil, err
		}
		ck.deps = append(ck.deps, da)
	}
	if err := ck.buildGuards(); err != nil {
		return nil, err
	}

	root := ck.initialState()
	n := ck.explore(root)
	if ck.err != nil {
		return nil, ck.err
	}
	rep.States = len(ck.memo)
	rep.MemoHits = ck.hits
	rep.Admitted = n.counts
	if n.diverged {
		rep.Divergence = ck.divergence(n)
	} else if n.counts[EngRef] != n.counts[EngTree] || n.counts[EngRef] != n.counts[EngProg] {
		// Counts can only differ through a leaf disagreement; reaching
		// here means the checker itself is inconsistent.
		return nil, fmt.Errorf("mc: internal: admitted counts differ (%v) with no divergent leaf", n.counts)
	}

	if opt.NaiveLimit >= 0 && len(bases) <= opt.NaiveLimit {
		if err := ck.naiveCrossCheck(rep); err != nil {
			return nil, err
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// maxTraceCount is n!·2ⁿ, the number of maximal traces over n events.
func maxTraceCount(n int) uint64 {
	out := uint64(1)
	for i := 1; i <= n; i++ {
		out *= uint64(i) * 2
	}
	return out
}

// buildGuards lowers every symbol's guard for both engines.  The tree
// engine reads the synthesized Formula's products directly; the prog
// engine compiles the guard pair with gprog and reads the products
// back from the flat masks via ProductLits, so the two sides diverge
// exactly when the lowering does.
func (ck *checker) buildGuards() error {
	ck.guards[0] = make([]guardSpec, len(ck.syms))
	ck.guards[1] = make([]guardSpec, len(ck.syms))
	for bi, b := range ck.bases {
		nb := b.Complement()
		pos, neg := ck.c.GuardOf(b), ck.c.GuardOf(nb)
		tpos, tneg := pos, neg
		if ck.opt.TreeGuard != nil {
			tpos, tneg = ck.opt.TreeGuard(b, pos), ck.opt.TreeGuard(nb, neg)
		}
		ppos, pneg := pos, neg
		if ck.opt.ProgGuard != nil {
			ppos, pneg = ck.opt.ProgGuard(b, pos), ck.opt.ProgGuard(nb, neg)
		}
		var err error
		if ck.guards[0][2*bi], err = ck.lowerFormula(tpos); err != nil {
			return fmt.Errorf("mc: %s guard of %s: %w", ck.name, b, err)
		}
		if ck.guards[0][2*bi+1], err = ck.lowerFormula(tneg); err != nil {
			return fmt.Errorf("mc: %s guard of %s: %w", ck.name, nb, err)
		}
		prog := gprog.Compile(
			gprog.GuardInput{Guard: ppos, LocalNeg: localNegSyms(ck.c, b)},
			gprog.GuardInput{Guard: pneg, LocalNeg: localNegSyms(ck.c, nb)},
		)
		if ck.guards[1][2*bi], err = ck.lowerLits(prog.ProductLits(gprog.PolPos)); err != nil {
			return fmt.Errorf("mc: %s program of %s: %w", ck.name, b, err)
		}
		if ck.guards[1][2*bi+1], err = ck.lowerLits(prog.ProductLits(gprog.PolNeg)); err != nil {
			return fmt.Errorf("mc: %s program of %s: %w", ck.name, nb, err)
		}
		ck.pstates = append(ck.pstates, prog.NewState())
	}
	return nil
}

// localNegSyms rebuilds the gprog.GuardInput LocalNeg map the runtime
// plan compiles, so the compile input shape matches production.
func localNegSyms(c *core.Compiled, s algebra.Symbol) map[string]algebra.Symbol {
	eg, ok := c.Guards[s.Key()]
	if !ok || len(eg.LocalNeg) == 0 {
		return nil
	}
	out := map[string]algebra.Symbol{}
	for k := range eg.LocalNeg {
		sym, err := algebra.ParseSymbol(k)
		if err != nil {
			continue
		}
		out[k] = sym
	}
	return out
}

func (ck *checker) lowerFormula(g temporal.Formula) (guardSpec, error) {
	lits := make([][]temporal.Literal, 0, len(g.Products()))
	for _, p := range g.Products() {
		lits = append(lits, p.Lits())
	}
	return ck.lowerLits(lits)
}

// lowerLits lowers sum-of-products literal lists onto the universe.
func (ck *checker) lowerLits(products [][]temporal.Literal) (guardSpec, error) {
	if len(products) == 1 && len(products[0]) == 0 {
		return guardSpec{top: true}, nil
	}
	gs := guardSpec{prods: make([]prodSpec, 0, len(products))}
	for _, lits := range products {
		var ps prodSpec
		for _, l := range lits {
			switch l.Kind() {
			case temporal.LitOccurred:
				id, err := ck.sid(l.Sym())
				if err != nil {
					return gs, err
				}
				ps.occ |= 1 << id
			case temporal.LitNotYet:
				id, err := ck.sid(l.Sym())
				if err != nil {
					return gs, err
				}
				ps.not |= 1 << id
			default:
				di, err := ck.dia(l)
				if err != nil {
					return gs, err
				}
				ps.dias = append(ps.dias, uint16(di))
			}
		}
		sortU16(ps.dias)
		ps.dias = dedupeU16(ps.dias)
		gs.prods = append(gs.prods, ps)
	}
	return gs, nil
}

func (ck *checker) sid(s algebra.Symbol) (int, error) {
	id, ok := ck.symID[s.Key()]
	if !ok {
		return 0, fmt.Errorf("guard mentions %s, outside the workflow universe", s)
	}
	return id, nil
}

func (ck *checker) dia(l temporal.Literal) (int, error) {
	if di, ok := ck.diaID[l.Key()]; ok {
		return di, nil
	}
	da := diaAuto{seq: make([]uint16, len(l.Syms()))}
	for i, s := range l.Syms() {
		id, err := ck.sid(s)
		if err != nil {
			return 0, err
		}
		da.seq[i] = uint16(id)
	}
	di := len(ck.dias)
	if di >= diaDead {
		return 0, fmt.Errorf("more than %d distinct ◇ literals", diaDead)
	}
	ck.diaID[l.Key()] = di
	ck.dias = append(ck.dias, da)
	return di, nil
}

func sortU16(xs []uint16) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

func dedupeU16(xs []uint16) []uint16 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// mstate is one canonical checker state.
type mstate struct {
	fired uint32  // fired symbol ids (one bit per polarity)
	dia   []uint8 // per ◇: members consumed, or diaDead
	oblig [2]struct {
		obls []oblig
		dead bool
	}
	refSt []uint16 // per dependency: reference automaton class
}

func (ck *checker) initialState() *mstate {
	st := &mstate{
		dia:   make([]uint8, len(ck.dias)),
		refSt: make([]uint16, len(ck.deps)),
	}
	for i, da := range ck.deps {
		st.refSt[i] = da.start
	}
	return st
}

func (st *mstate) baseResolved(bi int) bool {
	return st.fired&(3<<(2*bi)) != 0
}

// key is the canonical memo encoding.  Obligations are encoded from
// their sorted, deduplicated form, so path-equivalent states collide.
func (st *mstate) key() string {
	b := make([]byte, 0, 64)
	b = append(b, byte(st.fired), byte(st.fired>>8), byte(st.fired>>16), byte(st.fired>>24))
	for _, d := range st.dia {
		b = append(b, d)
	}
	for _, r := range st.refSt {
		b = append(b, byte(r), byte(r>>8))
	}
	for e := 0; e < 2; e++ {
		b = append(b, '#')
		if st.oblig[e].dead {
			b = append(b, 'X')
			continue
		}
		for _, ob := range st.oblig[e].obls {
			b = append(b, '{')
			for _, prod := range ob {
				b = append(b, '(')
				for _, d := range prod {
					b = append(b, byte(d), byte(d>>8))
				}
			}
		}
	}
	return string(b)
}

// explore walks the DAG of states below st, memoized on the canonical
// key, and returns per-engine admitted-completion counts plus the
// minimal divergent suffix if any leaf below disagrees.
func (ck *checker) explore(st *mstate) *node {
	if ck.err != nil {
		return &node{}
	}
	key := st.key()
	if n, ok := ck.memo[key]; ok {
		ck.hits++
		return n
	}
	if len(ck.memo) >= ck.opt.MaxStates {
		ck.err = fmt.Errorf("mc: %s: state cap %d exceeded", ck.name, ck.opt.MaxStates)
		return &node{}
	}
	if len(ck.memo)%4096 == 0 && ck.spent() {
		ck.err = fmt.Errorf("mc: %s: wall-clock budget %v exceeded after %d states", ck.name, ck.opt.Budget, len(ck.memo))
		return &node{}
	}
	n := &node{}
	if ck.allResolved(st) {
		ck.leaf(st, n)
		ck.memo[key] = n
		return n
	}
	for sid := 0; sid < len(ck.syms); sid++ {
		if st.baseResolved(sid >> 1) {
			continue
		}
		cn := ck.explore(ck.fire(st, sid))
		if ck.err != nil {
			return n
		}
		for e := 0; e < 3; e++ {
			n.counts[e] += cn.counts[e]
		}
		if cn.diverged && !n.diverged {
			n.diverged = true
			n.verdicts = cn.verdicts
			n.badSuffix = append([]uint16{uint16(sid)}, cn.badSuffix...)
		}
	}
	ck.memo[key] = n
	return n
}

func (ck *checker) allResolved(st *mstate) bool {
	for bi := range ck.bases {
		if !st.baseResolved(bi) {
			return false
		}
	}
	return true
}

// leaf evaluates the three verdicts at a maximal trace.
func (ck *checker) leaf(st *mstate, n *node) {
	refOK := true
	for i, da := range ck.deps {
		if !da.accept[st.refSt[i]] {
			refOK = false
			break
		}
	}
	treeOK := !st.oblig[0].dead && len(st.oblig[0].obls) == 0
	progOK := !st.oblig[1].dead && len(st.oblig[1].obls) == 0
	verdicts := [3]bool{refOK, treeOK, progOK}
	for e, ok := range verdicts {
		if ok {
			n.counts[e]++
		}
	}
	if treeOK != refOK || progOK != refOK {
		n.diverged = true
		n.verdicts = verdicts
		n.badSuffix = []uint16{}
	}
}

// fire transitions st by the firing of symbol sid, producing the
// canonical successor state: ◇ automata advance or die, carried
// obligations renormalize against the new ◇ states, and the fired
// symbol's own guard is admitted per engine — a product whose □/¬
// part fails now is gone for good (the fired set only grows), one
// whose ◇ part is already complete discharges the whole guard, and
// the rest become a new obligation.
func (ck *checker) fire(st *mstate, sid int) *mstate {
	ns := &mstate{
		fired: st.fired | 1<<sid,
		dia:   make([]uint8, len(st.dia)),
		refSt: make([]uint16, len(st.refSt)),
	}
	copy(ns.dia, st.dia)
	for d := range ck.dias {
		cur := ns.dia[d]
		seq := ck.dias[d].seq
		if cur == diaDead || int(cur) == len(seq) {
			continue
		}
		if seq[cur] == uint16(sid) {
			ns.dia[d] = cur + 1
			continue
		}
		for _, m := range seq[cur:] {
			if int(m)>>1 == sid>>1 {
				ns.dia[d] = diaDead
				break
			}
		}
	}
	copy(ns.refSt, st.refSt)
	for i, da := range ck.deps {
		gi, ok := da.gid[ck.syms[sid].Key()]
		if !ok {
			continue
		}
		ns.refSt[i] = uint16(da.trans[st.refSt[i]][gi])
	}
	for e := 0; e < 2; e++ {
		if st.oblig[e].dead {
			ns.oblig[e].dead = true
			continue
		}
		obls := make([]oblig, 0, len(st.oblig[e].obls)+1)
		dead := false
		for _, ob := range st.oblig[e].obls {
			nob, sat, obDead := renormOblig(ob, ns.dia, ck.dias)
			if sat {
				continue
			}
			if obDead {
				dead = true
				break
			}
			obls = append(obls, nob)
		}
		if !dead {
			g := &ck.guards[e][sid]
			if !g.top {
				nob, admitted, pending := ck.admitGuard(g, st.fired, ns.dia)
				switch {
				case admitted:
				case pending:
					obls = append(obls, nob)
				default:
					dead = true
				}
			}
		}
		if dead {
			ns.oblig[e].dead = true
		} else {
			ns.oblig[e].obls = canonObligs(obls)
		}
	}
	return ns
}

// renormOblig filters an obligation against the current ◇ states:
// products containing a dead ◇ drop, completed ◇s are removed, an
// emptied product satisfies the obligation, and an obligation with no
// products left can never be satisfied.
func renormOblig(ob oblig, dia []uint8, dias []diaAuto) (oblig, bool, bool) {
	out := make(oblig, 0, len(ob))
	for _, prod := range ob {
		np, alive, done := renormProd(prod, dia, dias)
		if !alive {
			continue
		}
		if done {
			return nil, true, false
		}
		out = append(out, np)
	}
	if len(out) == 0 {
		return nil, false, true
	}
	return out, false, false
}

func renormProd(prod []uint16, dia []uint8, dias []diaAuto) ([]uint16, bool, bool) {
	out := make([]uint16, 0, len(prod))
	for _, d := range prod {
		switch {
		case dia[d] == diaDead:
			return nil, false, false
		case int(dia[d]) == len(dias[d].seq):
			// Complete: true for the rest of the trace, drop it.
		default:
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		return nil, true, true
	}
	return out, true, false
}

// admitGuard evaluates the fired symbol's guard: □/¬ parts against the
// fired set before the firing (EvalAt judges position i by the strict
// prefix), ◇ parts against the ◇ states including the firing itself
// (◇ is a whole-trace reading).  It returns the residual obligation,
// whether the guard is already discharged, and whether any product
// survives at all.
func (ck *checker) admitGuard(g *guardSpec, firedBefore uint32, dia []uint8) (oblig, bool, bool) {
	out := make(oblig, 0, len(g.prods))
	for _, ps := range g.prods {
		if ps.occ&^firedBefore != 0 || ps.not&firedBefore != 0 {
			continue
		}
		np, alive, done := renormProd(ps.dias, dia, ck.dias)
		if !alive {
			continue
		}
		if done {
			return nil, true, false
		}
		out = append(out, np)
	}
	if len(out) == 0 {
		return nil, false, false
	}
	return out, false, true
}

// canonObligs sorts and deduplicates obligations (and each
// obligation's products) so state keys are path-independent.
func canonObligs(obls []oblig) []oblig {
	for _, ob := range obls {
		sort.Slice(ob, func(i, j int) bool { return lessU16(ob[i], ob[j]) })
	}
	sort.Slice(obls, func(i, j int) bool { return lessOblig(obls[i], obls[j]) })
	out := obls[:0]
	for i, ob := range obls {
		if i == 0 || lessOblig(obls[i-1], ob) || lessOblig(ob, obls[i-1]) {
			out = append(out, ob)
		}
	}
	return out
}

func lessU16(a, b []uint16) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func lessOblig(a, b oblig) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if lessU16(a[i], b[i]) {
			return true
		}
		if lessU16(b[i], a[i]) {
			return false
		}
	}
	return len(a) < len(b)
}

// divergence reconstructs the counterexample trace from the root's
// minimal bad suffix.
func (ck *checker) divergence(n *node) *Divergence {
	tr := make(algebra.Trace, len(n.badSuffix))
	for i, sid := range n.badSuffix {
		tr[i] = ck.syms[sid]
	}
	return &Divergence{Trace: tr, Verdicts: n.verdicts}
}
