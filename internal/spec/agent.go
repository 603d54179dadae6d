package spec

import (
	"repro/internal/algebra"
	"repro/internal/simnet"
)

// Step is one action of an agent's script: attempt an event after a
// think delay, then continue — or, if the attempt is rejected, switch
// to the OnReject continuation (e.g. "if commit is refused, abort").
type Step struct {
	Sym    algebra.Symbol
	Forced bool
	Think  simnet.Time
	// OnReject replaces the remaining script when this step's attempt
	// is rejected.
	OnReject []Step
}

// AgentScript is a serial task agent: it attempts its steps one at a
// time, each after the previous decision arrives (paper §2: the agent
// requests permission for controllable events and reports the rest).
type AgentScript struct {
	ID    string
	Site  simnet.SiteID
	Steps []Step
}

// Placement maps base-event keys to the sites of their actors (and of
// the agents that attempt them).  Events without an entry default to
// site "s0".
type Placement map[string]simnet.SiteID

// SiteFor returns the placement of an event.
func (p Placement) SiteFor(s algebra.Symbol) simnet.SiteID {
	if site, ok := p[s.Base().Key()]; ok {
		return site
	}
	return "s0"
}
