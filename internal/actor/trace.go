package actor

import "repro/internal/obs"

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

// traceResidual records the polarity's residual guard when the facts
// changed it since the last record: the guard, reduced, that the next
// decision is about.  It only reads the program, so a traced run
// decides exactly as an untraced one.
func (a *Actor) traceResidual(n Net, p *polarity) {
	if !a.Trace.On() {
		return
	}
	g := a.prog.Residual(p.pol()).Key()
	if g != a.shown(p) {
		a.Trace.Emit(obs.Record{
			Lamport: n.Clock(),
			Kind:    obs.KindResiduate,
			Sym:     a.tab.Key(p.id),
			Guard:   g,
		})
	}
	p.shown = g
}

// shown is the residual guard the polarity's trace last showed.
func (a *Actor) shown(p *polarity) string {
	if p.shown == "" {
		return a.prog.Prog().Guard(p.pol()).Key()
	}
	return p.shown
}

// traceEval emits one guard-evaluation record, with the residual guard
// the evaluation began with (traceResidual).
func (a *Actor) traceEval(n Net, p *polarity, verdict string) {
	if !a.Trace.On() {
		return
	}
	a.Trace.Emit(obs.Record{
		Lamport: n.Clock(),
		Kind:    obs.KindEval,
		Sym:     a.tab.Key(p.id),
		Guard:   a.shown(p),
		Verdict: verdict,
	})
}
