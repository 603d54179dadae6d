package sched

import (
	"fmt"

	"repro/internal/actor"
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
	tab  *symtab.Table // the run plan's
	// actors delivers to the instance's actors at this site; nil when
	// the site hosts none.
	actors func(actor.Net, any)
	agents map[symtab.ID]*agentRun // by awaited symbol
}

func newSiteHost(site simnet.SiteID, tab *symtab.Table) *siteHost {
	return &siteHost{site: site, tab: tab, agents: map[symtab.ID]*agentRun{}}
}

func (h *siteHost) Handle(n *simnet.Network, m simnet.Message) {
	switch msg := m.Payload.(type) {
	case actor.DecisionMsg:
		if ag, ok := h.agents[msg.ID]; ok {
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

func (d distributedSubmitter) DecisionSite(id symtab.ID) simnet.SiteID {
	return d.pl.SiteFor(d.tab.Sym(id))
}

func (d distributedSubmitter) Attempt(n *simnet.Network, origin simnet.SiteID,
	id symtab.ID, forced bool, replyTo simnet.SiteID) {
	mAttempts.Inc()
	n.Send(origin, d.DecisionSite(id), actor.AttemptMsg{ID: id, Forced: forced, ReplyTo: replyTo})
}
