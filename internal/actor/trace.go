package actor

import (
	"repro/internal/obs"
	"repro/internal/temporal"
)

// Protocol-level metrics, shared by every actor in the process.  No
// actor writes them per message: each actor tallies into its own
// Counts, and the owner of an instance adds the instance's sum once
// (Counts.Publish), so two workers never contend on a counter's cache
// line per delivery.
var (
	mAttempts      = obs.C("actor.attempts")
	mAnnouncements = obs.C("actor.announcements")
	mFires         = obs.C("actor.fires")
	mRejects       = obs.C("actor.rejects")
	mInquiries     = obs.C("actor.inquiries")
)

// Counts are protocol-step tallies: one actor's since they were last
// taken, or the sum over an instance's actors.
type Counts struct {
	Attempts, Announcements, Fires, Rejects, Inquiries int64
}

// Add adds o into c.
func (c *Counts) Add(o Counts) {
	c.Attempts += o.Attempts
	c.Announcements += o.Announcements
	c.Fires += o.Fires
	c.Rejects += o.Rejects
	c.Inquiries += o.Inquiries
}

// Publish adds the tallies to the process-wide actor.* counters.
func (c Counts) Publish() {
	for _, x := range [...]struct {
		m *obs.Counter
		v int64
	}{
		{mAttempts, c.Attempts}, {mAnnouncements, c.Announcements},
		{mFires, c.Fires}, {mRejects, c.Rejects}, {mInquiries, c.Inquiries},
	} {
		if x.v != 0 {
			x.m.Add(x.v)
		}
	}
}

// TakeCounts returns the actor's tallies since the last take and
// zeroes them.  The caller must own the actor: no delivery may be
// running on it.
func (a *Actor) TakeCounts() Counts {
	c := a.counts
	a.counts = Counts{}
	return c
}

// traceEval emits one guard-evaluation record.  Guard keys are only
// computed once the single-atomic-load gate passed.
func (a *Actor) traceEval(n Net, p *polarity, g temporal.Formula, verdict string) {
	if !a.Trace.On() {
		return
	}
	a.Trace.Emit(obs.Record{
		Lamport: n.Clock(),
		Kind:    obs.KindEval,
		Sym:     a.tab.Key(p.id),
		Guard:   g.Key(),
		Verdict: verdict,
	})
}
