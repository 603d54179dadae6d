package sched

import (
	"fmt"
	"sort"

	"repro/internal/actor"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/gprog"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/temporal"
)

// trueProg is the shared compiled ⊤/⊤ program for unconstrained
// actors created lazily at attempt time.
var trueProg = gprog.Compile(
	gprog.GuardInput{Guard: temporal.TrueF()},
	gprog.GuardInput{Guard: temporal.TrueF()})

// siteHost demultiplexes the messages arriving at one site among the
// actors and agents living there.
type siteHost struct {
	site   simnet.SiteID
	actors map[string]*actor.Actor // by base-event key
	// order lists the actor keys sorted; broadcast fan-out must follow
	// it, never the map, or co-located actors process one delivery in a
	// different order each run and the replayed Lamport stamps drift.
	order  []string
	agents map[string]*agentRun // by awaited symbol key
}

func newSiteHost(site simnet.SiteID) *siteHost {
	return &siteHost{
		site:   site,
		actors: map[string]*actor.Actor{},
		agents: map[string]*agentRun{},
	}
}

// addActor registers an actor under its base-event key, keeping the
// broadcast order sorted.
func (h *siteHost) addActor(key string, a *actor.Actor) {
	h.actors[key] = a
	i := sort.SearchStrings(h.order, key)
	h.order = append(h.order, "")
	copy(h.order[i+1:], h.order[i:])
	h.order[i] = key
}

func (h *siteHost) Handle(n *simnet.Network, m simnet.Message) {
	switch msg := m.Payload.(type) {
	case actor.AttemptMsg:
		h.actor(msg.Sym).Handle(n, m)
	case actor.AnnounceMsg:
		for _, k := range h.order {
			h.actors[k].Handle(n, m)
		}
	case actor.InquireMsg:
		h.actor(msg.Target).Handle(n, m)
	case actor.InquireReplyMsg:
		h.actor(msg.Requester).Handle(n, m)
	case actor.ReleaseMsg:
		h.actor(msg.Target).Handle(n, m)
	case actor.NudgeMsg:
		for _, k := range h.order {
			h.actors[k].Handle(n, m)
		}
	case actor.DecisionMsg:
		if ag, ok := h.agents[msg.Sym.Key()]; ok {
			ag.onDecision(n, msg)
		}
	case agentTick:
		msg.agent.onTick(n, msg)
	default:
		panic(fmt.Sprintf("sched: site %s: unexpected payload %T", h.site, m.Payload))
	}
}

func (h *siteHost) actor(s algebra.Symbol) *actor.Actor {
	a, ok := h.actors[s.Base().Key()]
	if !ok {
		panic(fmt.Sprintf("sched: site %s has no actor for %s", h.site, s.Base()))
	}
	return a
}

// distributedSubmitter routes attempts to the event's actor site.
// Events outside the workflow alphabet — task transitions no
// dependency constrains, like a bare start — get an unconstrained
// (⊤-guard) actor created lazily at the attempting site: the
// specification says nothing about them, so they occur freely.
type distributedSubmitter struct {
	dir   *actor.Directory
	hosts map[simnet.SiteID]*siteHost
	hooks *actor.Hooks
	net   *simnet.Network
}

func (d *distributedSubmitter) DecisionSite(s algebra.Symbol) simnet.SiteID {
	site, err := d.dir.SiteOf(s)
	if err != nil {
		panic(err)
	}
	return site
}

func (d *distributedSubmitter) ensureActor(s algebra.Symbol, origin simnet.SiteID) simnet.SiteID {
	if site, err := d.dir.SiteOf(s); err == nil {
		return site
	}
	h, ok := d.hosts[origin]
	if !ok {
		h = newSiteHost(origin)
		d.hosts[origin] = h
		d.net.AddSite(origin, h)
	}
	b := s.Base()
	d.dir.Place(b, origin)
	a := actor.New(b, origin, d.dir, d.hooks,
		actor.GuardSpec{Guard: temporal.TrueF()}, actor.GuardSpec{Guard: temporal.TrueF()})
	a.AttachProgram(trueProg)
	h.addActor(b.Key(), a)
	return origin
}

func (d *distributedSubmitter) Attempt(n *simnet.Network, origin simnet.SiteID,
	s algebra.Symbol, forced bool, replyTo simnet.SiteID) {
	mAttempts.Inc()
	site := d.ensureActor(s, origin)
	n.Send(origin, site, actor.AttemptMsg{Sym: s, Forced: forced, ReplyTo: replyTo})
}

// installDistributed builds the directory, actors, and site hosts for
// the compiled workflow and returns the submitter plus the hosts (for
// agent registration).  noElim disables the consensus-elimination
// optimization (the P6 ablation).
func installDistributed(n *simnet.Network, c *core.Compiled, pl spec.Placement,
	hooks *actor.Hooks, noElim bool) (Submitter, map[simnet.SiteID]*siteHost) {
	dir := actor.NewDirectory()
	hosts := map[simnet.SiteID]*siteHost{}
	host := func(site simnet.SiteID) *siteHost {
		h, ok := hosts[site]
		if !ok {
			h = newSiteHost(site)
			hosts[site] = h
			n.AddSite(site, h)
		}
		return h
	}
	bases := sortedBases(c.Workflow)
	for _, b := range bases {
		dir.Place(b, pl.SiteFor(b))
	}
	for _, b := range bases {
		site := pl.SiteFor(b)
		pos, neg := guardSpec(c, b, noElim), guardSpec(c, b.Complement(), noElim)
		a := actor.New(b, site, dir, hooks, pos, neg)
		a.AttachProgram(gprog.Compile(
			gprog.GuardInput{Guard: pos.Guard, LocalNeg: pos.LocalNeg},
			gprog.GuardInput{Guard: neg.Guard, LocalNeg: neg.LocalNeg}))
		host(site).addActor(b.Key(), a)
		for _, polKey := range []string{b.Key(), b.Complement().Key()} {
			eg := c.Guards[polKey]
			if eg == nil {
				continue
			}
			for _, w := range eg.Watches {
				dir.Subscribe(w, site)
			}
		}
	}
	return &distributedSubmitter{dir: dir, hosts: hosts, hooks: hooks, net: n}, hosts
}

// guardSpec assembles a polarity's guard spec from the compiled
// workflow.
func guardSpec(c *core.Compiled, s algebra.Symbol, noElim bool) actor.GuardSpec {
	spec := actor.GuardSpec{Guard: c.GuardOf(s)}
	if noElim {
		return spec
	}
	if eg, ok := c.Guards[s.Key()]; ok && len(eg.LocalNeg) > 0 {
		spec.LocalNeg = map[string]algebra.Symbol{}
		for key := range eg.LocalNeg {
			f, err := algebra.ParseSymbol(key)
			if err != nil {
				panic(err)
			}
			spec.LocalNeg[key] = f
		}
	}
	return spec
}
