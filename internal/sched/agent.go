package sched

import (
	"fmt"

	"repro/internal/actor"
	"repro/internal/simnet"
	"repro/internal/spec"
)

// agentTick is the timer payload that fires an agent's next attempt.
type agentTick struct {
	agent *agentRun
}

// agentRun executes one script.
type agentRun struct {
	script *spec.AgentScript
	sub    Submitter
	host   *siteHost
	queue  []spec.Step
	done   bool
	// sentAt is when the outstanding attempt left the agent; used for
	// the agent-perceived decision latency.
	sentAt simnet.Time
	// onLatency, when set, receives each attempt's round-trip latency.
	onLatency func(simnet.Time)
}

func newAgentRun(script *spec.AgentScript, sub Submitter, host *siteHost) *agentRun {
	return &agentRun{
		script: script,
		sub:    sub,
		host:   host,
		queue:  append([]spec.Step(nil), script.Steps...),
	}
}

// start schedules the first attempt.
func (a *agentRun) start(n *simnet.Network) {
	a.scheduleNext(n)
}

func (a *agentRun) scheduleNext(n *simnet.Network) {
	if len(a.queue) == 0 {
		a.done = true
		return
	}
	n.After(a.script.Site, a.queue[0].Think, agentTick{agent: a})
}

func (a *agentRun) onTick(n *simnet.Network, _ agentTick) {
	if len(a.queue) == 0 {
		return
	}
	step := a.queue[0]
	id := a.host.tab.MustLookup(step.Sym)
	if other, taken := a.host.agents[id]; taken && other != a {
		panic(fmt.Sprintf("sched: two agents await the same event %s", step.Sym))
	}
	a.host.agents[id] = a
	a.sentAt = n.Now()
	a.sub.Attempt(n, a.script.Site, id, step.Forced, a.script.Site)
}

func (a *agentRun) onDecision(n *simnet.Network, d actor.DecisionMsg) {
	if len(a.queue) == 0 || a.host.tab.MustLookup(a.queue[0].Sym) != d.ID {
		return // stale duplicate (e.g. re-acknowledged attempt)
	}
	step := a.queue[0]
	delete(a.host.agents, d.ID)
	if a.onLatency != nil {
		a.onLatency(n.Now() - a.sentAt)
	}
	if d.Accepted {
		a.queue = a.queue[1:]
	} else {
		a.queue = append([]spec.Step(nil), step.OnReject...)
	}
	a.scheduleNext(n)
}
