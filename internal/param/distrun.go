package param

import (
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/simnet"
)

// TypesConfig describes a distributed parametrized run: §5's token
// scheduling executed by per-type actors over the simulated network.
type TypesConfig struct {
	// Deps are the parametrized dependencies (text syntax).
	Deps []string
	// Placement maps event-type names to sites; types without an entry
	// default to "s0".
	Placement map[string]simnet.SiteID
	// Script is the token schedule: each entry is attempted at its
	// type's site at the given absolute simulation time.  Parked
	// tokens are decided whenever their guards allow, so later entries
	// should leave room for the admissions they depend on.
	Script []TimedToken
	// Seed makes the run reproducible.
	Seed int64
}

// TimedToken is one scripted token attempt.
type TimedToken struct {
	Ground string
	// At is the absolute injection time.
	At simnet.Time
}

// TypesReport summarizes a distributed parametrized run.
type TypesReport struct {
	// Trace is the realized token occurrence order.
	Trace algebra.Trace
	// Decisions are the accept/reject outcomes, in decision order.
	Decisions []TokDecision
	// Parked lists tokens still undecided at the end.
	Parked []algebra.Symbol
	// Stats are the network statistics.
	Stats simnet.Stats
}

// deferredAttempt carries a scheduled token injection from the driver
// site to the token's type site.
type deferredAttempt struct {
	to  simnet.SiteID
	msg TokAttempt
}

// RunTypes executes a distributed parametrized run.
func RunTypes(cfg TypesConfig) (*TypesReport, error) {
	if len(cfg.Deps) == 0 {
		return nil, fmt.Errorf("param: RunTypes needs dependencies")
	}
	net := simnet.New(simnet.DefaultLatency(), cfg.Seed)
	dir := NewTypeDirectory()

	deps := make([]*algebra.Expr, len(cfg.Deps))
	typeNames := map[string]bool{}
	for i, src := range cfg.Deps {
		d, err := algebra.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("param: dependency %d: %w", i+1, err)
		}
		deps[i] = d
		for _, s := range d.Gamma().Bases() {
			typeNames[s.Name] = true
		}
	}
	names := make([]string, 0, len(typeNames))
	for n := range typeNames {
		names = append(names, n)
	}
	sort.Strings(names)

	siteOf := func(name string) simnet.SiteID {
		if cfg.Placement != nil {
			if s, ok := cfg.Placement[name]; ok {
				return s
			}
		}
		return "s0"
	}

	report := &TypesReport{}
	hooks := &TypeHooks{
		OnFire: func(g algebra.Symbol, _ int64) { report.Trace = append(report.Trace, g) },
		OnDecision: func(d TokDecision) {
			report.Decisions = append(report.Decisions, d)
		},
	}

	actors := map[string]*TypeActor{}
	bySite := map[simnet.SiteID][]*TypeActor{}
	for _, name := range names {
		dir.Place(name, siteOf(name))
	}
	for _, name := range names {
		a, err := NewTypeActor(name, siteOf(name), deps, dir, hooks)
		if err != nil {
			return nil, err
		}
		actors[name] = a
		bySite[siteOf(name)] = append(bySite[siteOf(name)], a)
	}
	// Subscribe every actor's site to the types it watches.
	for _, name := range names {
		for _, w := range actors[name].WatchedTypes() {
			dir.Subscribe(w, siteOf(name))
		}
	}
	for site, group := range bySite {
		group := group
		net.AddSite(site, simnet.HandlerFunc(func(n *simnet.Network, m simnet.Message) {
			routeTypes(n, m, group)
		}))
	}

	const driverSite simnet.SiteID = "driver"
	net.AddSite(driverSite, simnet.HandlerFunc(func(n *simnet.Network, m simnet.Message) {
		if da, ok := m.Payload.(deferredAttempt); ok {
			n.Send(driverSite, da.to, da.msg)
		}
		// TokDecision arrivals are recorded via hooks; nothing to do.
	}))
	for _, tt := range cfg.Script {
		sym, err := algebra.ParseSymbol(tt.Ground)
		if err != nil {
			return nil, fmt.Errorf("param: script token %q: %w", tt.Ground, err)
		}
		site, ok := dir.SiteOf(sym.Base().Name)
		if !ok {
			return nil, fmt.Errorf("param: script token %q: type not in any dependency", tt.Ground)
		}
		net.After(driverSite, tt.At, deferredAttempt{to: site, msg: TokAttempt{Ground: sym, ReplyTo: driverSite}})
	}
	net.Run(1_000_000)

	for _, name := range names {
		report.Parked = append(report.Parked, actors[name].Parked()...)
	}
	report.Stats = net.Stats()
	return report, nil
}

// routeTypes demultiplexes a site's messages among its type actors.
func routeTypes(n *simnet.Network, m simnet.Message, group []*TypeActor) {
	switch msg := m.Payload.(type) {
	case TokAttempt:
		for _, a := range group {
			if msg.Ground.Name == a.name {
				a.Handle(n, m)
				return
			}
		}
		panic(fmt.Sprintf("param: no actor for token %s at %s", msg.Ground, m.To))
	case TokAnnounce:
		for _, a := range group {
			a.Handle(n, m)
		}
	case TFreeze:
		for _, a := range group {
			if msg.Type == a.name {
				a.Handle(n, m)
				return
			}
		}
	case TFreezeReply:
		for _, a := range group {
			if a.round != nil && a.round.pending[msg.Type] {
				a.Handle(n, m)
				return
			}
		}
	case TRelease:
		key := msg.Type + fmt.Sprint(msg.Round)
		for _, a := range group {
			if a.frozenBy[key] {
				a.Handle(n, m)
				return
			}
		}
	default:
		panic(fmt.Sprintf("param: unexpected payload %T at %s", m.Payload, m.To))
	}
}
