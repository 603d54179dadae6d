package actor

import (
	"slices"
	"sort"

	"repro/internal/algebra"
	"repro/internal/simnet"
	"repro/internal/symtab"
)

// Directory maps events to the sites of their actors and records who
// watches whom.  It is built once, before execution, from the compiled
// workflow — part of the precompilation the paper advocates — and is
// read-only afterwards.  Placing an event interns it in the
// directory's symbol table, so the table's ids follow placement order
// and every per-event lookup at run time is a slice read.
type Directory struct {
	tab *symtab.Table
	// sites[event] is the event's actor site, "" while unplaced.
	sites []simnet.SiteID
	// subs[event] lists the sites to notify on occurrence of either
	// polarity (the sites of actors whose guards watch the event),
	// sorted.
	subs [][]simnet.SiteID
}

// NewDirectory creates an empty directory over a fresh symbol table.
func NewDirectory() *Directory { return &Directory{tab: symtab.New()} }

// Table returns the directory's symbol table.
func (d *Directory) Table() *symtab.Table { return d.tab }

// intern adds the symbol's event to the table and sizes the per-event
// slices to it.
func (d *Directory) intern(s algebra.Symbol) int {
	ev := d.tab.Add(s).Event()
	for len(d.sites) <= ev {
		d.sites = append(d.sites, "")
		d.subs = append(d.subs, nil)
	}
	return ev
}

// Place assigns the actor of an event (both polarities) to a site.
func (d *Directory) Place(base algebra.Symbol, site simnet.SiteID) {
	d.sites[d.intern(base)] = site
}

// Site returns the actor site of an event, "" when it is not placed.
func (d *Directory) Site(id symtab.ID) simnet.SiteID {
	if ev := id.Event(); ev < len(d.sites) {
		return d.sites[ev]
	}
	return ""
}

// Subscribe adds a site to the announcement list of an event.
func (d *Directory) Subscribe(base algebra.Symbol, site simnet.SiteID) {
	ev := d.intern(base)
	subs := d.subs[ev]
	i := sort.Search(len(subs), func(i int) bool { return subs[i] >= site })
	if i < len(subs) && subs[i] == site {
		return
	}
	d.subs[ev] = slices.Insert(subs, i, site)
}

// SubscribersOf returns the sites to notify when the event (either
// polarity) occurs.
func (d *Directory) SubscribersOf(id symtab.ID) []simnet.SiteID {
	if ev := id.Event(); ev < len(d.subs) {
		return d.subs[ev]
	}
	return nil
}

// Hooks are out-of-band instrumentation callbacks, invoked directly
// (no simulated messages, so metrics never distort message counts).
type Hooks struct {
	// OnFire is called at each event occurrence with the announcement
	// the occurrence broadcasts.
	OnFire func(ann AnnounceMsg, when simnet.Time)
	// OnDecision is called for every accept/reject decision.
	OnDecision func(d DecisionMsg)
}

func (h *Hooks) fire(ann AnnounceMsg, when simnet.Time) {
	if h != nil && h.OnFire != nil {
		h.OnFire(ann, when)
	}
}

func (h *Hooks) decision(d DecisionMsg) {
	if h != nil && h.OnDecision != nil {
		h.OnDecision(d)
	}
}
