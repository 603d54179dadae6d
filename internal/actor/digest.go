package actor

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/symtab"
	"repro/internal/temporal"
)

// StateDigest serializes the actor's complete state — including the
// transient protocol state Export deliberately refuses — into one
// deterministic string.  Two actors with equal digests behave
// identically under any further delivery sequence, which is what the
// model checker's interleaving exploration (internal/mc) keys its
// visited-state pruning on.
//
// Everything that can influence a future decision is included: the
// program state's facts, deferred inquiries (in queue order — they
// replay in order), and per polarity the attempt/occurrence/rejection
// record, the open round with its pending set and holds, outstanding
// holds and promises in both directions, the commit wave, the retry
// mark, and the past-inquirer set.  Deliberately excluded: attemptTime (latency metrics only,
// never read by the protocol), the residual guard a trace last showed,
// and the trace scope.
func (a *Actor) StateDigest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%s r%d", a.tab.Key(a.id), a.site, a.roundSeq)

	type fact struct {
		key string
		st  temporal.Status
		at  int64
	}
	var facts []fact
	a.prog.Facts(func(id symtab.ID, st temporal.Status, at int64) {
		facts = append(facts, fact{a.tab.Key(id), st, at})
	})
	sort.Slice(facts, func(i, j int) bool { return facts[i].key < facts[j].key })
	for _, f := range facts {
		fmt.Fprintf(&b, ";k:%s=%d@%d", f.key, f.st, f.at)
	}

	for _, m := range a.deferred {
		fmt.Fprintf(&b, ";d:%s<%s#%d@%s", a.tab.Key(m.Target), a.tab.Key(m.Requester), m.Round, m.ReplyTo)
		for _, h := range m.Hyp {
			fmt.Fprintf(&b, ",%s", a.tab.Key(h))
		}
	}

	for _, p := range a.sortedPols() {
		fmt.Fprintf(&b, ";p:%s", a.tab.Key(p.id))
		if p.attempted {
			fmt.Fprintf(&b, " att(f=%v,by=%s)", p.forced, p.replyTo)
		}
		if p.occurred {
			fmt.Fprintf(&b, " occ@%d", p.at)
		}
		if p.rejected {
			b.WriteString(" rej")
		}
		if p.fireReady {
			b.WriteString(" ready")
		}
		if p.retry {
			b.WriteString(" retry")
		}
		if p.triggerable {
			b.WriteString(" trig")
		}
		if p.round != nil {
			fmt.Fprintf(&b, " round#%d pend%v", p.round.id, a.keysOf(p.round.pending))
			for _, c := range p.round.holds {
				fmt.Fprintf(&b, " hold(%s@%s)", a.tab.Key(c.id), c.site)
			}
		}
		if len(p.holdsOnMe) > 0 {
			held := make([]string, 0, len(p.holdsOnMe))
			for h := range p.holdsOnMe {
				held = append(held, fmt.Sprintf("%s#%d", a.tab.Key(h.req), h.round))
			}
			sort.Strings(held)
			fmt.Fprintf(&b, " heldby%v", held)
		}
		if len(p.wave) > 0 {
			fmt.Fprintf(&b, " wave%v", a.keysOf(p.wave))
		}
		gave := make([]promiseInfo, 0, len(p.promisesBy))
		for _, pi := range p.promisesBy {
			gave = append(gave, pi)
		}
		sort.Slice(gave, func(i, j int) bool { return a.tab.Key(gave[i].requester) < a.tab.Key(gave[j].requester) })
		for _, pi := range gave {
			k := a.tab.Key(pi.requester)
			fmt.Fprintf(&b, " gave(%s->%s", k, k)
			for _, c := range pi.conds {
				fmt.Fprintf(&b, ",%s", a.tab.Key(c))
			}
			b.WriteString(")")
		}
		claims := make([]symtab.ID, 0, len(p.promiseClaims))
		for k := range p.promiseClaims {
			claims = append(claims, k)
		}
		a.sortByKey(claims)
		for _, k := range claims {
			pc := p.promiseClaims[k]
			fmt.Fprintf(&b, " holds(%s@%s ar=%v", a.tab.Key(k), pc.site, pc.afterReq)
			for _, c := range pc.conds {
				fmt.Fprintf(&b, ",%s", a.tab.Key(c))
			}
			b.WriteString(")")
		}
		if len(p.pastInquirers) > 0 {
			sites := make([]string, 0, len(p.pastInquirers))
			for s := range p.pastInquirers {
				sites = append(sites, string(s))
			}
			sort.Strings(sites)
			fmt.Fprintf(&b, " inq%v", sites)
		}
	}
	return b.String()
}

// keysOf lists a symbol set's keys, sorted.
func (a *Actor) keysOf(set map[symtab.ID]bool) []string {
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, a.tab.Key(id))
	}
	sort.Strings(out)
	return out
}
