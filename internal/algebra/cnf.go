package algebra

// CNF rewrites an expression into the form required by the symbolic
// residuation rules: no + or | occurs in the scope of · (paper §3.4:
// "This holds for CNF, which can be obtained by repeated application
// of the distribution laws").  The result is a +/| combination whose
// sequence nodes contain only atoms.
//
// The distribution laws used — ·(over +) and ·(over |) — are stated in
// §3.2 and verified against the trace semantics by this package's
// tests.  CNF can grow the expression exponentially in the worst case;
// dependencies arising from workflow specifications are small, and the
// guard compiler memoizes on canonical keys.
func CNF(e *Expr) *Expr {
	switch e.Kind() {
	case KZero, KTop, KAtom:
		return e
	case KChoice:
		alts := make([]*Expr, len(e.Subs()))
		for i, a := range e.Subs() {
			alts[i] = CNF(a)
		}
		return Choice(alts...)
	case KConj:
		cs := make([]*Expr, len(e.Subs()))
		for i, c := range e.Subs() {
			cs[i] = CNF(c)
		}
		return Conj(cs...)
	case KSeq:
		return cnfSeq(e.Subs())
	}
	panic("algebra: invalid expression kind in CNF")
}

// cnfSeq distributes an n-ary sequence over any + or | appearing in
// its parts, left to right.
func cnfSeq(parts []*Expr) *Expr {
	// Normalize each part first.
	norm := make([]*Expr, len(parts))
	for i, p := range parts {
		norm[i] = CNF(p)
	}
	// Find the first non-atomic part and distribute around it.
	for i, p := range norm {
		switch p.Kind() {
		case KChoice:
			alts := make([]*Expr, 0, len(p.Subs()))
			for _, a := range p.Subs() {
				seq := spliceSeq(norm, i, a)
				alts = append(alts, cnfSeq(seq))
			}
			return Choice(alts...)
		case KConj:
			cs := make([]*Expr, 0, len(p.Subs()))
			for _, c := range p.Subs() {
				seq := spliceSeq(norm, i, c)
				cs = append(cs, cnfSeq(seq))
			}
			return Conj(cs...)
		case KSeq:
			// Flatten a nested sequence in place and retry.
			seq := make([]*Expr, 0, len(norm)+len(p.Subs()))
			seq = append(seq, norm[:i]...)
			seq = append(seq, p.Subs()...)
			seq = append(seq, norm[i+1:]...)
			return cnfSeq(seq)
		}
	}
	// All parts atomic (or 0/⊤): construction normalizes.
	return Seq(norm...)
}

// spliceSeq returns a copy of parts with parts[i] replaced by repl.
func spliceSeq(parts []*Expr, i int, repl *Expr) []*Expr {
	out := make([]*Expr, len(parts))
	copy(out, parts)
	out[i] = repl
	return out
}
