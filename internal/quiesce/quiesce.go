// Package quiesce tracks in-flight work so concurrent transports can
// detect distributed quiescence: the moment when no message is queued,
// being processed, or awaiting acknowledgement anywhere.
//
// internal/netwire (TCP links) and internal/engine's per-instance
// transports need the same accounting — a message counts as pending
// from the instant it is sent until its handler has returned (and, for
// the wire transport, until the receiver's acknowledgement has pruned
// it from the retransmission queue).  The sender's interval and the
// receiver's interval overlap by construction, so a count shared by
// every party never reads zero while anything is still in flight: one
// read of a shared NotifyTracker is a consistent snapshot, and its
// zero-transitions are the idle signal.  Counts kept apart (nodes in
// other processes) are not summed: each node's zero-transitions
// trigger a report of its per-link counts, and netwire.Quiescent
// compares those link by link.
package quiesce

import (
	"sync"
	"sync/atomic"
	"time"
)

// NotifyTracker counts pending work items, and its completions can
// wake parked waiters: Done pulses a gate when the count transitions
// to zero while a waiter is registered, so an idle wait sleeps until a
// completion instead of polling.  Acting on a single zero observation
// is sound under the overlap property described in the package
// comment, as long as every party to the run counts into the same
// tracker.  The zero value is ready to use.
type NotifyTracker struct {
	pending atomic.Int64
	waiters atomic.Int32
	gate    Gate
}

// Add records n new pending items.
func (t *NotifyTracker) Add(n int64) { t.pending.Add(n) }

// Done records one completion, waking idle waiters when the count
// transitions to zero.  The waiter check keeps the uncontended hot
// path to one atomic add plus one atomic load — no mutex, no channel
// churn — while anyone parked still gets an immediate pulse.  Both
// sides write their flag before reading the other's (sequentially
// consistent), so a registered waiter either sees zero on its own
// re-check or is seen here and pulsed; no wakeup is lost.
func (t *NotifyTracker) Done() {
	if t.pending.Add(-1) == 0 && t.waiters.Load() > 0 {
		t.gate.Pulse()
	}
}

// Pending returns the current number of pending items.
func (t *NotifyTracker) Pending() int64 { return t.pending.Load() }

// IdleNow reports whether the tracker reads zero right now.
func (t *NotifyTracker) IdleNow() bool { return t.pending.Load() == 0 }

// IdleWait registers a waiter and returns the channel the next
// zero-transition closes, plus a cancel that must be called once the
// wait is over (however it ended).  A transition that completed before
// registration never pulses, so the caller must re-check IdleNow after
// taking the channel and before blocking on it.
func (t *NotifyTracker) IdleWait() (idle <-chan struct{}, cancel func()) {
	t.waiters.Add(1)
	return t.gate.Chan(), func() { t.waiters.Add(-1) }
}

// WaitIdle blocks until the tracker reads zero or the timeout elapses,
// sleeping between completions instead of polling.  It reports whether
// quiescence was reached.
func (t *NotifyTracker) WaitIdle(timeout time.Duration) bool {
	if t.pending.Load() == 0 {
		return true
	}
	_, cancel := t.IdleWait()
	defer cancel()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		// Take the channel first, then re-check: a pulse between the
		// check and the select closes the channel we already hold.
		ch := t.gate.Chan()
		if t.pending.Load() == 0 {
			return true
		}
		select {
		case <-ch:
		case <-timer.C:
			return t.pending.Load() == 0
		}
	}
}

// Gate is a reusable broadcast signal: waiters take the current
// channel with Chan and block on it; Pulse closes that channel
// (waking everyone), and the next Chan takes a fresh one.  It lets a waiter sleep
// until "something changed" — a decision arrived, a pending count hit
// zero — instead of polling, which is what makes per-instance
// completion cheap enough to replace global quiescence on the hot
// path.  The zero value is ready to use.
type Gate struct {
	mu sync.Mutex
	ch chan struct{}
}

// Chan returns the channel the next Pulse will close.
func (g *Gate) Chan() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ch == nil {
		g.ch = make(chan struct{})
	}
	return g.ch
}

// Pulse wakes every goroutine blocked on a previously returned
// channel.  The next channel is made only when Chan asks for it, so a
// pulse nobody waits for allocates nothing.
func (g *Gate) Pulse() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ch != nil {
		close(g.ch)
		g.ch = nil
	}
}
