package sched

import (
	"fmt"

	"repro/internal/actor"
	"repro/internal/algebra"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/symtab"
)

// siteHost is one simulated site: the agents living there and, under
// the distributed scheduler, the plan instance's actors placed there.
// Decisions and ticks go to the agents; every other payload is
// protocol traffic for the actors.
type siteHost struct {
	site simnet.SiteID
	// actors delivers to the instance's actors at this site; nil when
	// the site hosts none.
	actors func(actor.Net, any)
	agents map[string]*agentRun // by awaited symbol key
}

func newSiteHost(site simnet.SiteID) *siteHost {
	return &siteHost{site: site, agents: map[string]*agentRun{}}
}

func (h *siteHost) Handle(n *simnet.Network, m simnet.Message) {
	switch msg := m.Payload.(type) {
	case actor.DecisionMsg:
		if ag, ok := h.agents[msg.Sym.Key()]; ok {
			ag.onDecision(n, msg)
		}
	case agentTick:
		msg.agent.onTick(n, msg)
	default:
		if h.actors == nil {
			panic(fmt.Sprintf("sched: site %s: unexpected payload %T", h.site, m.Payload))
		}
		h.actors(n, m.Payload)
	}
}

// distributedSubmitter routes attempts to the event's actor site: the
// placement the run's plan was built from, which places every event an
// agent attempts.
type distributedSubmitter struct {
	tab *symtab.Table
	pl  spec.Placement
}

func (d distributedSubmitter) DecisionSite(s algebra.Symbol) simnet.SiteID { return d.pl.SiteFor(s) }

func (d distributedSubmitter) Attempt(n *simnet.Network, origin simnet.SiteID,
	s algebra.Symbol, forced bool, replyTo simnet.SiteID) {
	mAttempts.Inc()
	n.Send(origin, d.pl.SiteFor(s), actor.AttemptMsg{Sym: s, ID: d.tab.MustLookup(s), Forced: forced, ReplyTo: replyTo})
}
