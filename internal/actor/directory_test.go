package actor

import (
	"sort"
	"testing"

	"repro/internal/simnet"
	"repro/internal/symtab"
)

func TestDirectoryPlaceAndSite(t *testing.T) {
	d := NewDirectory()
	a := sym("a")
	d.Place(a, "s1")
	site := func(k string) simnet.SiteID { return d.Site(d.Table().MustLookup(sym(k))) }

	if got := site("a"); got != "s1" {
		t.Fatalf("Site(a) = %q; want s1", got)
	}
	// Both polarities resolve to the same actor site.
	if got := site("~a"); got != "s1" {
		t.Fatalf("Site(~a) = %q; want s1", got)
	}
	// Placing via the complement normalizes to the base too.
	d.Place(sym("~b"), "s2")
	if got := site("b"); got != "s2" {
		t.Fatalf("Site(b) = %q; want s2", got)
	}
	// Re-placing overrides.
	d.Place(a, "s9")
	if got := site("a"); got != "s9" {
		t.Fatalf("Site(a) after re-place = %q; want s9", got)
	}
}

func TestDirectorySiteMiss(t *testing.T) {
	d := NewDirectory()
	d.Place(sym("a"), "s1")
	// An event interned without placement (a subscription) and an id
	// past the table both have no site.
	d.Subscribe(sym("ghost"), "s1")
	if site := d.Site(d.Table().MustLookup(sym("ghost"))); site != "" {
		t.Fatalf("Site of unplaced event = %q; want none", site)
	}
	if site := d.Site(symtab.ID(d.Table().Len())); site != "" {
		t.Fatalf("Site past the table = %q; want none", site)
	}
}

func TestDirectorySubscribe(t *testing.T) {
	d := NewDirectory()
	a := sym("a")
	// Unsorted insertion order, with duplicates and a complement-keyed
	// subscription mixed in.
	d.Subscribe(a, "s3")
	d.Subscribe(a, "s1")
	d.Subscribe(a, "s3") // dup
	d.Subscribe(sym("~a"), "s2")
	d.Subscribe(sym("~a"), "s1") // dup via complement

	got := d.SubscribersOf(d.Table().MustLookup(a))
	want := []simnet.SiteID{"s1", "s2", "s3"}
	if len(got) != len(want) {
		t.Fatalf("SubscribersOf(a) = %v; want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SubscribersOf(a) = %v; want %v (sorted, deduplicated)", got, want)
		}
	}
	// Either polarity reads the same list.
	if neg := d.SubscribersOf(d.Table().MustLookup(sym("~a"))); len(neg) != len(want) {
		t.Fatalf("SubscribersOf(~a) = %v; want %v", neg, want)
	}
	// Ids past the table have no subscribers (and no error:
	// announcements to nobody are legal).
	if s := d.SubscribersOf(symtab.ID(d.Table().Len())); len(s) != 0 {
		t.Fatalf("SubscribersOf(ghost) = %v; want empty", s)
	}
}

func TestDirectoryEvents(t *testing.T) {
	d := NewDirectory()
	if evs := d.Events(); len(evs) != 0 {
		t.Fatalf("empty directory Events() = %v", evs)
	}
	d.Place(sym("c"), "s1")
	d.Place(sym("a"), "s2")
	d.Place(sym("~b"), "s3")
	evs := d.Events()
	want := []string{"a", "b", "c"}
	if len(evs) != len(want) {
		t.Fatalf("Events() = %v; want %v", evs, want)
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Fatalf("Events() = %v; want %v (sorted base keys)", evs, want)
		}
	}
}

// TestHooksNilSafety: a nil *Hooks (and a Hooks with nil callbacks)
// must be safe to fire — callers never guard the calls.
func TestHooksNilSafety(t *testing.T) {
	var h *Hooks
	h.fire(AnnounceMsg{ID: 2, At: 1}, 2)
	h.decision(DecisionMsg{})

	h = &Hooks{}
	h.fire(AnnounceMsg{ID: 2, At: 1}, 2)
	h.decision(DecisionMsg{})

	fired, decided := 0, 0
	h = &Hooks{
		OnFire:     func(AnnounceMsg, simnet.Time) { fired++ },
		OnDecision: func(DecisionMsg) { decided++ },
	}
	h.fire(AnnounceMsg{ID: 2, At: 1}, 2)
	h.decision(DecisionMsg{})
	if fired != 1 || decided != 1 {
		t.Fatalf("hooks not invoked: fired=%d decided=%d", fired, decided)
	}
}

// Events returns the placed base-event keys, sorted.
func (d *Directory) Events() []string {
	var out []string
	for ev, site := range d.sites {
		if site != "" {
			out = append(out, d.tab.Key(symtab.ID(2*ev)))
		}
	}
	sort.Strings(out)
	return out
}
