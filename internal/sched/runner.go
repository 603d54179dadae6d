package sched

import (
	"fmt"

	"repro/internal/actor"
	"repro/internal/arun"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/spec"
)

// Config describes one run.
type Config struct {
	// Workflow to enforce.
	Workflow *core.Workflow
	// Kind selects the scheduler implementation.
	Kind Kind
	// Placement of the actors: an alphabet event it leaves out sits
	// at "s0", an out-of-alphabet one at the site of the first agent,
	// in script order, that mentions it.  Ignored by the centralized
	// schedulers, which decide everything at CentralSite.
	Placement spec.Placement
	// Agents are the task agents driving the run.
	Agents []*spec.AgentScript
	// Latency is the network model; the zero value selects
	// simnet.DefaultLatency.
	Latency simnet.LatencyModel
	// Seed makes the run reproducible.
	Seed int64
	// NoConsensusElimination disables the compile-time elimination of
	// ¬-literal agreement round trips (the P6 ablation; elimination is
	// on by default, matching the paper's conclusions).
	NoConsensusElimination bool
	// Triggerable lists symbols (text syntax, e.g. "s_cancel") the
	// scheduler may proactively trigger — §2's triggerable attribute.
	// Their actors may promise them before any attempt and
	// self-trigger on discharge.  Used by the distributed scheduler;
	// the centralized ones trigger through closeout.
	Triggerable []string
	// Closeout, when set, resolves every event after the agents drain
	// (attempting complements, then the events themselves), producing
	// a maximal trace — the scheduler triggering events "on its own
	// accord", §3.3.
	Closeout bool
	// ActorLog, when set, receives a line per distributed-actor action
	// (debugging aid).
	ActorLog func(format string, args ...any)
	// Tracer receives the distributed actors' decision records; nil
	// falls back to the process-wide obs.Shared() tracer.
	Tracer *obs.Tracer
}

// SpecConfig assembles a run configuration from a parsed spec: its
// workflow, placement, agents and triggerable symbols, with closeout.
func SpecConfig(sp *spec.Spec, kind Kind, seed int64) Config {
	return Config{
		Workflow:    sp.Workflow,
		Kind:        kind,
		Placement:   sp.Placement(),
		Agents:      sp.Agents,
		Seed:        seed,
		Triggerable: sp.Triggerable(),
		Closeout:    true,
	}
}

// maxSteps bounds the deliveries of one simulation.
const maxSteps = 1_000_000

// Run executes the configuration and reports the outcome.
func Run(cfg Config) (*Report, error) {
	if cfg.Workflow == nil || len(cfg.Workflow.Deps) == 0 {
		return nil, fmt.Errorf("sched: config needs a workflow")
	}
	c, err := core.Compile(cfg.Workflow)
	if err != nil {
		return nil, err
	}
	return RunCompiled(c, cfg)
}

// RunCompiled is Run for a pre-compiled workflow (the benchmarks
// compile once and run many times).
func RunCompiled(c *core.Compiled, cfg Config) (*Report, error) {
	lat := cfg.Latency
	if lat == (simnet.LatencyModel{}) {
		lat = simnet.DefaultLatency()
	}

	for _, ag := range cfg.Agents {
		if ag.Site == "" {
			return nil, fmt.Errorf("sched: agent %s needs a site", ag.ID)
		}
	}
	sp, err := planSpec(cfg)
	if err != nil {
		return nil, err
	}
	pc := c
	if cfg.NoConsensusElimination {
		pc = withoutElimination(c)
	}
	plan, err := arun.NewPlan(sp, arun.PlanOptions{Compiled: pc})
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	tab := plan.Symbols()

	net := simnet.New(lat, cfg.Seed)
	col := NewCollector()
	hooks := col.Hooks()
	hosts := map[simnet.SiteID]*siteHost{}
	host := func(site simnet.SiteID) *siteHost {
		h, ok := hosts[site]
		if !ok {
			h = newSiteHost(site)
			hosts[site] = h
			net.AddSite(site, h)
		}
		return h
	}

	var sub Submitter
	var actors []*actor.Actor
	switch cfg.Kind {
	case Distributed, "":
		tracer := cfg.Tracer
		if tracer == nil {
			tracer = obs.Shared()
		}
		// One run = one instance tag, so repeated runs into a shared
		// capture keep their per-instance invariants separable.
		in := plan.Install(hooks, tracer, tracer.NextInst())
		for _, site := range plan.Sites() {
			host(site).actors = in.Handler(site)
		}
		actors = in.Actors()
		if cfg.ActorLog != nil {
			for _, a := range actors {
				a.Log = cfg.ActorLog
			}
		}
		sub = distributedSubmitter{tab: tab, pl: sp.Placement()}
	case CentralResiduation, CentralAutomata, CentralGuards:
		installCentral(net, tab, c, cfg.Kind, hooks)
		sub = centralSubmitter{tab: tab}
	default:
		return nil, fmt.Errorf("sched: unknown scheduler kind %q", cfg.Kind)
	}

	for _, ag := range cfg.Agents {
		run := newAgentRun(ag, sub, host(ag.Site))
		run.onLatency = col.addAgentLatency
		run.start(net)
	}

	net.Run(maxSteps)

	if cfg.Closeout {
		runCloseout(net, sub, col, c.Workflow)
	}
	// The run is over and the simulator idle: publish the actors'
	// protocol tallies once.
	var counts actor.Counts
	for _, a := range actors {
		counts.Add(a.TakeCounts())
	}
	counts.Publish()

	report := &Report{
		Kind:           cfg.Kind,
		Trace:          col.Trace,
		Decisions:      col.Decisions,
		AgentLatencies: col.AgentLatencies,
		Stats:          net.Stats(),
		Satisfied:      core.SatisfiesAll(c.Workflow, col.Trace),
		Generated:      core.GeneratesCompiled(c, col.Trace),
	}
	if n := len(col.FireTimes); n > 0 {
		report.Makespan = col.FireTimes[n-1]
	}
	for _, b := range sortedBases(c.Workflow) {
		if !col.Resolved(b) {
			report.Unresolved = append(report.Unresolved, b.Key())
		}
	}
	return report, nil
}

// runCloseout drives the run to a maximal trace: for every unresolved
// event it first attempts the complement ("the event will never
// occur"); when a complement is rejected — the event is obligated — it
// attempts the event itself, triggering it.  Passes repeat until
// quiescence.
func runCloseout(net *simnet.Network, sub Submitter, col *Collector, w *core.Workflow) {
	bases := sortedBases(w)
	triedComp := map[string]bool{}
	triedPos := map[string]bool{}
	for pass := 0; pass < 2*len(bases)+2; pass++ {
		progress := false
		for _, b := range bases {
			if col.Resolved(b) {
				continue
			}
			switch {
			case !triedComp[b.Key()]:
				triedComp[b.Key()] = true
				cb := b.Complement()
				sub.Attempt(net, sub.DecisionSite(cb), cb, false, "")
				progress = true
			case !triedPos[b.Key()]:
				triedPos[b.Key()] = true
				sub.Attempt(net, sub.DecisionSite(b), b, false, "")
				progress = true
			}
		}
		net.Run(maxSteps)
		allResolved := true
		for _, b := range bases {
			if !col.Resolved(b) {
				allResolved = false
				break
			}
		}
		if allResolved || !progress {
			return
		}
	}
}
