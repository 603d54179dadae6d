package actor

// Crash-recovery support: the WAL journals verdict transitions as they
// happen (Journal), and snapshots serialize settled actor state
// (Export / Restore).  Export deliberately refuses an actor with any
// transient protocol state — an open agreement round, outstanding
// holds or promises, a blocked fire — because snapshots are only taken
// at transport quiescence, where no such state can exist; refusing
// loudly turns a broken quiescence assumption into an error instead of
// a silently wrong snapshot.

import (
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/simnet"
	"repro/internal/symtab"
	"repro/internal/temporal"
)

// Journal is implemented by transports that persist verdict
// transitions.  The actor calls it at the commit point of each
// verdict, before any resulting announcement is handed to the
// transport, so a logged outbound announcement always has its fire
// record earlier in the log.
type Journal interface {
	JournalFire(site simnet.SiteID, sym string, at int64)
	JournalReject(site simnet.SiteID, sym string, note string)
}

// FactState is one serialized knowledge fact.
type FactState struct {
	Sym        string `json:"sym"`
	Impossible bool   `json:"impossible,omitempty"`
	At         int64  `json:"at,omitempty"`
}

// PolState is the settled state of one polarity.
type PolState struct {
	Sym           string      `json:"sym"`
	Attempted     bool        `json:"attempted,omitempty"`
	Forced        bool        `json:"forced,omitempty"`
	AttemptTime   simnet.Time `json:"attemptTime,omitempty"`
	ReplyTo       string      `json:"replyTo,omitempty"`
	Occurred      bool        `json:"occurred,omitempty"`
	At            int64       `json:"at,omitempty"`
	Rejected      bool        `json:"rejected,omitempty"`
	PastInquirers []string    `json:"pastInquirers,omitempty"`
}

// ActorState is the serialized settled state of one actor: its facts
// plus both polarities.  Guards are not serialized — the compiled plan
// supplies them, and the restored facts reduce them.
type ActorState struct {
	Base     string      `json:"base"`
	RoundSeq int         `json:"roundSeq,omitempty"`
	Facts    []FactState `json:"facts,omitempty"`
	Pols     []PolState  `json:"pols,omitempty"`
}

// Export serializes the actor's state, failing if any transient
// protocol state is live (the actor is not settled).
func (a *Actor) Export() (ActorState, error) {
	st := ActorState{Base: a.tab.Key(a.id), RoundSeq: a.roundSeq}
	if len(a.deferred) > 0 {
		return st, fmt.Errorf("actor %s@%s: %d deferred inquiries", a.tab.Key(a.id), a.site, len(a.deferred))
	}
	var badFacts []string
	a.prog.Facts(func(id symtab.ID, s temporal.Status, at int64) {
		key := a.tab.Key(id)
		switch s {
		case temporal.StatusOccurred:
			st.Facts = append(st.Facts, FactState{Sym: key, At: at})
		case temporal.StatusImpossible:
			st.Facts = append(st.Facts, FactState{Sym: key, Impossible: true})
		default:
			badFacts = append(badFacts, fmt.Sprintf("%s=%s", key, s))
		}
	})
	if len(badFacts) > 0 {
		sort.Strings(badFacts)
		return st, fmt.Errorf("actor %s@%s: transient knowledge %v", a.tab.Key(a.id), a.site, badFacts)
	}
	sort.Slice(st.Facts, func(i, j int) bool { return st.Facts[i].Sym < st.Facts[j].Sym })
	for _, p := range a.sortedPols() {
		switch {
		case p.round != nil:
			return st, fmt.Errorf("actor %s@%s: open round on %s", a.tab.Key(a.id), a.site, a.tab.Key(p.id))
		case len(p.holdsOnMe) > 0 || len(p.promisesBy) > 0 || len(p.promiseClaims) > 0:
			return st, fmt.Errorf("actor %s@%s: outstanding holds/promises on %s", a.tab.Key(a.id), a.site, a.tab.Key(p.id))
		case !p.occurred && !p.rejected && (p.fireReady || p.retry || len(p.wave) > 0):
			// Only transient on a live polarity: a terminal one keeps its
			// chosen commit wave (and any late retry mark) as inert
			// history, which the restored actor never consults again.
			return st, fmt.Errorf("actor %s@%s: pending fire state on %s", a.tab.Key(a.id), a.site, a.tab.Key(p.id))
		}
		ps := PolState{
			Sym:         a.tab.Key(p.id),
			Attempted:   p.attempted,
			Forced:      p.forced,
			AttemptTime: p.attemptTime,
			ReplyTo:     string(p.replyTo),
			Occurred:    p.occurred,
			At:          p.at,
			Rejected:    p.rejected,
		}
		for site := range p.pastInquirers {
			ps.PastInquirers = append(ps.PastInquirers, string(site))
		}
		sort.Strings(ps.PastInquirers)
		st.Pols = append(st.Pols, ps)
	}
	return st, nil
}

// Restore loads exported state into a freshly built actor (guards
// installed, no protocol activity yet).  Occurrence facts are loaded
// first so their automatic complement-impossibility never overwrites
// an explicit fact, then standalone impossibilities.  Facts go through
// the same program-state writers the protocol uses.
func (a *Actor) Restore(st ActorState) error {
	if st.Base != a.tab.Key(a.id) {
		return fmt.Errorf("actor %s@%s: restore of %s", a.tab.Key(a.id), a.site, st.Base)
	}
	a.roundSeq = st.RoundSeq
	for _, f := range st.Facts {
		if f.Impossible {
			continue
		}
		id, err := a.restoreID(f.Sym)
		if err != nil {
			return err
		}
		a.prog.ObserveID(id, f.At)
	}
	for _, f := range st.Facts {
		if !f.Impossible {
			continue
		}
		id, err := a.restoreID(f.Sym)
		if err != nil {
			return err
		}
		a.prog.MarkImpossibleID(id)
	}
	for _, ps := range st.Pols {
		id, err := a.restoreID(ps.Sym)
		if err != nil {
			return err
		}
		p := a.lookup(id)
		if p == nil {
			return fmt.Errorf("actor %s@%s: unknown polarity %s", a.tab.Key(a.id), a.site, ps.Sym)
		}
		p.attempted = ps.Attempted
		p.forced = ps.Forced
		p.attemptTime = ps.AttemptTime
		p.replyTo = simnet.SiteID(ps.ReplyTo)
		p.occurred = ps.Occurred
		p.at = ps.At
		p.rejected = ps.Rejected
		for _, s := range ps.PastInquirers {
			put(&p.pastInquirers, simnet.SiteID(s), true)
		}
	}
	return nil
}

// restoreID resolves a snapshot's symbol text to its id in the plan's
// table: the snapshot edge, where names turn back into ids.
func (a *Actor) restoreID(key string) (symtab.ID, error) {
	sym, err := algebra.ParseSymbol(key)
	if err != nil {
		return symtab.None, fmt.Errorf("actor %s@%s: %w", a.tab.Key(a.id), a.site, err)
	}
	id, ok := a.tab.Lookup(sym)
	if !ok {
		return symtab.None, fmt.Errorf("actor %s@%s: snapshot names %s, which is not in the plan", a.tab.Key(a.id), a.site, key)
	}
	return id, nil
}
