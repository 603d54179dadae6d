package arun

// Resume rebuilds a crashed run from a durable transport's write-ahead
// logs.  The division of labor: the transport (internal/netwire)
// replays its per-node logs — snapshot state first, then the tail of
// durable deliveries through the handlers Resume registers — and this
// file supplies the application side: serializing settled actor and
// driver state for snapshots, and loading it back during recovery.
//
// The recovered runner is then driven exactly like a fresh one: Run()
// re-submits every schedule step, and the actors answer re-attempts of
// already-settled events idempotently ("already occurred" / "already
// rejected"), so the drive loop needs no crash awareness at all.  The
// driver's per-symbol decision cache is deliberately not snapshotted —
// re-attempts regenerate the decisions.

import (
	"encoding/json"
	"fmt"

	"repro/internal/actor"
	"repro/internal/algebra"
	"repro/internal/netwire"
	"repro/internal/simnet"
)

// snapshotable is the transport surface snapshots need; *netwire.Mesh
// and *netwire.Node implement it.
type snapshotable interface {
	SetSnapshotProvider(func(simnet.SiteID) ([]byte, error))
}

// Resume is NewRunner for a transport holding crash-recovery state: it
// builds the hosted actors, lets the transport replay its WAL through
// them, and only then attaches trace scopes — replayed steps were
// traced by the pre-crash run and must not be re-emitted.
//
// The transport must implement netwire.Recoverer and must not have
// been started yet (netwire.MeshOptions.DeferStart); call its Start
// after Resume returns, then drive the runner normally.
func (p *Plan) Resume(tr Transport, opt RunnerOptions) (*Runner, error) {
	rec, ok := tr.(netwire.Recoverer)
	if !ok {
		return nil, fmt.Errorf("arun: transport %T does not support recovery", tr)
	}
	b, err := p.build(tr, opt, true)
	if err != nil {
		return nil, err
	}
	if err := rec.Recover(b); err != nil {
		return nil, err
	}
	b.r.set.attachScopes(b.tracer, b.inst)
	return b.r, nil
}

// runnerState is the driver site's snapshot payload: the observed
// occurrences and the announcement/decision counters.
type runnerState struct {
	Occ  []occState `json:"occ,omitempty"`
	Anns int        `json:"anns,omitempty"`
	Decs int        `json:"decs,omitempty"`
}

type occState struct {
	Sym string `json:"sym"`
	At  int64  `json:"at"`
}

// exportSite is the snapshot provider installed on the transport: it
// serializes one site's settled state (the driver's observations, or a
// hosted site's actors).
func (b *runnerBuild) exportSite(site simnet.SiteID) ([]byte, error) {
	if site == DefaultDriver {
		return b.r.exportDriver()
	}
	h, ok := b.r.set.hosts[site]
	if !ok {
		return nil, nil
	}
	states := make([]actor.ActorState, 0, len(h.order))
	for _, a := range h.order {
		st, err := a.Export()
		if err != nil {
			return nil, err
		}
		states = append(states, st)
	}
	return json.Marshal(states)
}

// RestoreSite implements netwire.RecoveryHost: it dispatches snapshot
// state to the driver or the owning site host.
func (b *runnerBuild) RestoreSite(site simnet.SiteID, state []byte) error {
	if site == DefaultDriver {
		return b.r.restoreDriver(state)
	}
	h, ok := b.r.set.hosts[site]
	if !ok {
		return fmt.Errorf("arun: snapshot for unhosted site %q", site)
	}
	var states []actor.ActorState
	if err := json.Unmarshal(state, &states); err != nil {
		return fmt.Errorf("arun: site %s snapshot: %w", site, err)
	}
	for _, st := range states {
		var a *actor.Actor
		if id, ok := b.r.plan.tab.LookupKey(st.Base); ok {
			a = h.byEvent[id.Event()]
		}
		if a == nil || a.Site() != site {
			return fmt.Errorf("arun: site %s snapshot names unknown actor %q", site, st.Base)
		}
		if err := a.Restore(st); err != nil {
			return err
		}
	}
	return nil
}

func (r *Runner) exportDriver() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := runnerState{Anns: r.anns, Decs: r.decs}
	for _, id := range r.fired {
		st.Occ = append(st.Occ, occState{Sym: r.plan.tab.Key(id), At: r.occ[id].at})
	}
	// Arrival order is transport-specific; sort for a deterministic
	// snapshot.
	for i := 1; i < len(st.Occ); i++ {
		for j := i; j > 0 && st.Occ[j].Sym < st.Occ[j-1].Sym; j-- {
			st.Occ[j], st.Occ[j-1] = st.Occ[j-1], st.Occ[j]
		}
	}
	return json.Marshal(st)
}

func (r *Runner) restoreDriver(state []byte) error {
	var st runnerState
	if err := json.Unmarshal(state, &st); err != nil {
		return fmt.Errorf("arun: driver snapshot: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, o := range st.Occ {
		sym, err := algebra.ParseSymbol(o.Sym)
		if err != nil {
			return fmt.Errorf("arun: driver snapshot: %w", err)
		}
		id, err := r.plan.lookup(sym)
		if err != nil {
			return fmt.Errorf("arun: driver snapshot: %w", err)
		}
		r.record(id, o.At)
	}
	r.anns = st.Anns
	r.decs = st.Decs
	return nil
}
