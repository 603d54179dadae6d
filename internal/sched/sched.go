// Package sched provides four executable schedulers for compiled
// workflows plus a run harness that drives them over the simulated
// network and reports comparable metrics:
//
//   - Distributed: the paper's event-centric scheduler (§4) — one
//     actor per event, placed at a configurable site, deciding from
//     local guards and messages.  No central component exists at run
//     time.  The actors are the production ones: an arun.Plan built
//     from the run's configuration installs them (Plan.Install), and
//     this package hosts them on the simulator beside its agents.
//   - CentralResiduation: the dependency-centric scheduler of §3.3 —
//     a single site holds every dependency's residual and steps it
//     symbolically on each event.  This is the design the paper's §4
//     improves on.
//   - CentralAutomata: the approach of the paper's reference [2] — a
//     finite automaton per dependency, precompiled from the reachable
//     residuals, stepped by table lookup at a central site.
//   - CentralGuards: the Günthör-style approach the conclusions cite
//     ("based on temporal logic, but centralized") — the compiled
//     guards evaluated at one site against the global history, with
//     ◇ requirements accepted eagerly as obligations that no later
//     acceptance may break.
//
// All four enforce the same contract: every realized maximal trace
// satisfies every dependency.  Their strategies differ — the
// centralized schedulers decide eagerly from global state, while the
// distributed one runs the inquiry/promise protocol — so their
// accepted/parked outcomes can differ on traces the specification
// leaves open; the correctness tests check trace satisfaction, and the
// benchmarks compare messages, latency, and queueing.
package sched

import (
	"fmt"
	"sort"

	"repro/internal/actor"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/symtab"
)

// Kind selects a scheduler implementation.
type Kind string

// Scheduler kinds.
const (
	Distributed        Kind = "distributed"
	CentralResiduation Kind = "central-residuation"
	CentralAutomata    Kind = "central-automata"
	// CentralGuards is the Günthör-style baseline: compiled temporal
	// guards evaluated centrally against the global history.
	CentralGuards Kind = "central-guards"
)

// Kinds lists all scheduler kinds in comparison order.
func Kinds() []Kind {
	return []Kind{Distributed, CentralResiduation, CentralAutomata, CentralGuards}
}

// Submitter injects attempts into a scheduler.
type Submitter interface {
	// DecisionSite returns the site where the event is decided.
	DecisionSite(id symtab.ID) simnet.SiteID
	// Attempt sends an attempt from the origin site.
	Attempt(n *simnet.Network, origin simnet.SiteID, id symtab.ID, forced bool, replyTo simnet.SiteID)
}

// Collector accumulates the run's outcomes via out-of-band hooks.
type Collector struct {
	tab       *symtab.Table // the run plan's
	Trace     algebra.Trace
	FireTimes []simnet.Time
	Decisions []actor.DecisionMsg
	// AgentLatencies are the agent-perceived attempt→decision round
	// trips, including both network legs.
	AgentLatencies []simnet.Time
	occurred       map[symtab.ID]bool
}

func (c *Collector) addAgentLatency(l simnet.Time) {
	c.AgentLatencies = append(c.AgentLatencies, l)
}

// NewCollector returns an empty collector over the run plan's table.
func NewCollector(tab *symtab.Table) *Collector {
	return &Collector{tab: tab, occurred: map[symtab.ID]bool{}}
}

// Hooks returns actor hooks feeding this collector.
func (c *Collector) Hooks() *actor.Hooks {
	return &actor.Hooks{
		OnFire: func(ann actor.AnnounceMsg, when simnet.Time) {
			c.Trace = append(c.Trace, c.tab.Sym(ann.ID))
			c.FireTimes = append(c.FireTimes, when)
			c.occurred[ann.ID] = true
		},
		OnDecision: func(d actor.DecisionMsg) { c.Decisions = append(c.Decisions, d) },
	}
}

// Resolved reports whether the event's fate is settled: one polarity
// occurred.
func (c *Collector) Resolved(id symtab.ID) bool {
	return c.occurred[id] || c.occurred[id.Complement()]
}

// Report summarizes a run.
type Report struct {
	Kind Kind
	// AgentLatencies are the agent-perceived attempt→decision round
	// trips.
	AgentLatencies []simnet.Time
	// Trace is the realized global occurrence sequence.
	Trace algebra.Trace
	// Decisions lists every accept/reject with latency data.
	Decisions []actor.DecisionMsg
	// Symbols is the run plan's table, which names the decisions' ids.
	Symbols *symtab.Table
	// Stats are the network's message statistics.
	Stats simnet.Stats
	// Makespan is the simulation time when the last event fired.
	Makespan simnet.Time
	// Unresolved lists base events with neither polarity occurred
	// after closeout (a stall — none are expected in the shipped
	// workloads).
	Unresolved []string
	// Satisfied reports whether the realized trace satisfies every
	// dependency of the workflow.
	Satisfied bool
	// Generated reports Definition 4 on the realized trace: every
	// occurrence's compiled guard held at the moment it occurred.  By
	// Theorem 6 this tracks Satisfied on maximal traces; it serves as
	// a protocol-level invariant check of every run.
	Generated bool
}

// AvgLatency returns the mean agent-perceived attempt→decision round
// trip; when no agent latencies were recorded it falls back to the
// scheduler-side decision latencies.
func (r *Report) AvgLatency() simnet.Time {
	if n := len(r.AgentLatencies); n > 0 {
		var sum simnet.Time
		for _, l := range r.AgentLatencies {
			sum += l
		}
		return sum / simnet.Time(n)
	}
	if len(r.Decisions) == 0 {
		return 0
	}
	var sum simnet.Time
	for _, d := range r.Decisions {
		sum += d.DecidedAt - d.AttemptedAt
	}
	return sum / simnet.Time(len(r.Decisions))
}

// MaxLatency returns the worst agent-perceived round trip (or
// scheduler-side latency when no agent recorded one).
func (r *Report) MaxLatency() simnet.Time {
	var max simnet.Time
	for _, l := range r.AgentLatencies {
		if l > max {
			max = l
		}
	}
	if max > 0 {
		return max
	}
	for _, d := range r.Decisions {
		if l := d.DecidedAt - d.AttemptedAt; l > max {
			max = l
		}
	}
	return max
}

// MessagesPerEvent returns total messages divided by occurred events.
func (r *Report) MessagesPerEvent() float64 {
	if len(r.Trace) == 0 {
		return 0
	}
	return float64(r.Stats.Messages) / float64(len(r.Trace))
}

func sortedBases(w *core.Workflow) []algebra.Symbol {
	bases := w.Alphabet().Bases()
	sort.Slice(bases, func(i, j int) bool { return bases[i].Less(bases[j]) })
	return bases
}

// planSpec is the spec a run's plan is built from: the configuration's
// workflow and agents, its placement and its triggerable symbols.  An
// out-of-alphabet event the placement leaves undeclared goes at the
// site of the first agent, in script order, that mentions it, so that
// agent's attempts of it stay on its own site.
func planSpec(cfg Config) (*spec.Spec, error) {
	sp := &spec.Spec{Workflow: cfg.Workflow, Agents: cfg.Agents, Events: map[string]spec.EventMeta{}}
	for key, site := range cfg.Placement {
		sp.Events[key] = spec.EventMeta{Site: site}
	}
	alphabet := cfg.Workflow.Alphabet()
	var walk func(site simnet.SiteID, steps []spec.Step)
	walk = func(site simnet.SiteID, steps []spec.Step) {
		for _, st := range steps {
			b := st.Sym.Base()
			if _, placed := sp.Events[b.Key()]; !placed && !alphabet.HasEvent(b) {
				sp.Events[b.Key()] = spec.EventMeta{Site: site}
			}
			walk(site, st.OnReject)
		}
	}
	for _, ag := range cfg.Agents {
		walk(ag.Site, ag.Steps)
	}
	for _, key := range cfg.Triggerable {
		s, err := algebra.ParseSymbol(key)
		if err != nil {
			return nil, fmt.Errorf("sched: triggerable %q: %w", key, err)
		}
		m := sp.Events[s.Base().Key()]
		m.Sym = s.Base()
		if s.Bar {
			m.Rejectable = true
		} else {
			m.Triggerable = true
		}
		sp.Events[s.Base().Key()] = m
	}
	return sp, nil
}

// withoutElimination copies the compiled workflow with every LocalNeg
// set emptied: the P6 ablation, in which every ¬-literal agreement
// takes its round trip.
func withoutElimination(c *core.Compiled) *core.Compiled {
	out := &core.Compiled{Workflow: c.Workflow, Guards: make(map[string]*core.EventGuard, len(c.Guards)), Stats: c.Stats}
	for k, eg := range c.Guards {
		g := *eg
		g.LocalNeg = nil
		out.Guards[k] = &g
	}
	return out
}
