package actor

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/simnet"
	"repro/internal/symtab"
)

// AttemptMsg asks an event's actor to let the event occur.  Task
// agents send it when their task is ready to make the transition
// (paper §2); the run harness sends it when triggering events or when
// closing a run out to a maximal trace.
type AttemptMsg struct {
	Sym algebra.Symbol
	// ID is Sym's plan symbol id.  Every sender sets it; a payload
	// decoded off the wire gets it from the plan's table.
	ID symtab.ID
	// Forced marks a non-rejectable event (like abort): the scheduler
	// has no choice but to accept it, guard or no guard.
	Forced bool
	// ReplyTo, when non-empty, receives the DecisionMsg for this
	// attempt (normally the attempting agent's site).
	ReplyTo simnet.SiteID
}

// AnnounceMsg is □sym: the event occurred, with its position in the
// global occurrence order.  Sent to every actor whose guard watches
// the event, and to the observer.
type AnnounceMsg struct {
	Sym algebra.Symbol
	ID  symtab.ID // Sym's plan symbol id, as on AttemptMsg
	At  int64
}

// InquireMsg asks the actor of Target for its status, on behalf of a
// parked decision for Requester.  The reply may include a hold (the
// agreement the paper requires for ¬ literals) and/or a conditional
// promise (◇, Example 11).
type InquireMsg struct {
	Target    algebra.Symbol
	Requester algebra.Symbol
	// ReplyTo is the requester actor's site.
	ReplyTo simnet.SiteID
	// Round identifies the requester's decision round, for matching
	// replies and releases.
	Round int
	// Hyp is the requester's hypothesis set: the events it is prepared
	// to guarantee if its decision succeeds — its own event plus the
	// targets of the conditional promises it already holds.  The
	// target may grant a promise conditional on this set, which is how
	// promise chains across several actors unwind (each promise is
	// discharged when its conditions have occurred).
	Hyp []algebra.Symbol
}

// InquireReplyMsg answers an InquireMsg.
type InquireReplyMsg struct {
	Target    algebra.Symbol
	Requester algebra.Symbol
	Round     int
	// Occurred, with At, when the target already happened.
	Occurred bool
	At       int64
	// Impossible when the target can never happen (its complement
	// occurred or is promised).
	Impossible bool
	// Held: the target has not occurred and its actor freezes it until
	// ReleaseMsg, so the requester may rely on ¬target.
	Held bool
	// Promised: the target's actor issues a conditional promise ◇target
	// — discharged when the requester's occurrence reaches it.
	Promised bool
	// Conds are the conditions of the promise (the requester's
	// hypothesis, possibly extended with counter-conditions).  The
	// promise persists beyond the requester's round: it is discharged
	// when the conditions occur and lapses when the requester releases
	// it unfired or a condition becomes impossible.
	Conds []algebra.Symbol
	// AfterReq reports that the promised event cannot fire before the
	// requester's real occurrence (its guard requires it), so the
	// requester may rely on ¬target at its own firing instant even
	// though target is in the commit wave.
	AfterReq bool
}

// NudgeMsg tells past inquirers that the status of Sym changed in a
// way announcements do not carry — it became attempted, so a
// conditional promise may now be grantable.  Receivers re-evaluate
// their parked decisions.
type NudgeMsg struct {
	Sym algebra.Symbol
}

// ReleaseMsg ends a requester's claim.  With Promise false it releases
// a hold from an inquiry round.  With Promise true it settles a
// conditional promise: Fired true means the requester occurred and the
// promise must be fulfilled (the target self-triggers if necessary);
// Fired false means the requester can never occur and the promise
// lapses.
type ReleaseMsg struct {
	Target    algebra.Symbol
	Requester algebra.Symbol
	Round     int
	Promise   bool
	Fired     bool
}

// DecisionMsg reports the outcome of an attempt to the observer (and
// through it to the attempting agent).
type DecisionMsg struct {
	Sym      algebra.Symbol
	ID       symtab.ID // Sym's plan symbol id, as on AttemptMsg
	Accepted bool
	// At is the occurrence index for accepted events.
	At int64
	// AttemptedAt/DecidedAt are simulation times, for latency metrics.
	AttemptedAt, DecidedAt simnet.Time
	// Reason summarizes rejections for diagnostics.
	Reason string
}

// Instanced wraps a protocol message with the instance number of a
// multi-instance engine run, so hundreds of concurrent instances of
// one workflow can share a single mesh of sites: the receiving node
// demultiplexes on Inst and hands Msg to that instance's actors.
// Instanced envelopes do not nest.
type Instanced struct {
	Inst uint32
	Msg  any
}

func (m AttemptMsg) String() string  { return fmt.Sprintf("attempt(%s)", m.Sym) }
func (m AnnounceMsg) String() string { return fmt.Sprintf("announce(%s@%d)", m.Sym, m.At) }
func (m InquireMsg) String() string {
	return fmt.Sprintf("inquire(%s by %s#%d)", m.Target, m.Requester, m.Round)
}
func (m InquireReplyMsg) String() string {
	return fmt.Sprintf("reply(%s to %s#%d occ=%v imp=%v held=%v prom=%v)",
		m.Target, m.Requester, m.Round, m.Occurred, m.Impossible, m.Held, m.Promised)
}
func (m ReleaseMsg) String() string {
	return fmt.Sprintf("release(%s by %s#%d)", m.Target, m.Requester, m.Round)
}
func (m DecisionMsg) String() string {
	return fmt.Sprintf("decision(%s accepted=%v)", m.Sym, m.Accepted)
}
func (m Instanced) String() string { return fmt.Sprintf("inst(%d: %v)", m.Inst, m.Msg) }
