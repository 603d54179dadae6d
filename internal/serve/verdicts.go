package serve

import (
	"sync"
	"time"
)

// verdictStream is a bounded, sequence-numbered ring of completed
// verdicts supporting cursor reads and long-polling: clients read
// everything after their cursor and come back with the last Seq they
// saw.  A slow client that falls more than cap behind loses the
// overwritten prefix (its next read resumes from the oldest retained
// verdict — at-most-once streaming; the per-instance GET remains the
// lossless path).
type verdictStream struct {
	mu   sync.Mutex
	cond *sync.Cond
	buf  []*Verdict
	cap  int
	seq  uint64
}

func newVerdictStream(cap int) *verdictStream {
	v := &verdictStream{cap: cap}
	v.cond = sync.NewCond(&v.mu)
	return v
}

// push publishes a copy of v stamped with the next sequence number.
// The caller's verdict stays unstamped: it has already escaped to
// readers (CloseInstance, the instance GET) that encode it unlocked.
func (vs *verdictStream) push(v Verdict) {
	vs.mu.Lock()
	vs.seq++
	v.Seq = vs.seq
	vs.buf = append(vs.buf, &v)
	if len(vs.buf) > vs.cap {
		vs.buf = vs.buf[len(vs.buf)-vs.cap:]
	}
	vs.mu.Unlock()
	vs.cond.Broadcast()
}

// after returns up to max verdicts with Seq > cursor (locked).
func (vs *verdictStream) afterLocked(cursor uint64, max int) []*Verdict {
	i := 0
	for i < len(vs.buf) && vs.buf[i].Seq <= cursor {
		i++
	}
	out := vs.buf[i:]
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return append([]*Verdict(nil), out...)
}

// Wait returns verdicts past the cursor, blocking up to timeout when
// none are available yet (timeout <= 0 returns immediately).
func (vs *verdictStream) Wait(cursor uint64, max int, timeout time.Duration) []*Verdict {
	deadline := time.Now().Add(timeout)
	vs.mu.Lock()
	defer vs.mu.Unlock()
	for {
		if out := vs.afterLocked(cursor, max); len(out) > 0 {
			return out
		}
		if timeout <= 0 || !time.Now().Before(deadline) {
			return nil
		}
		// cond has no timed wait; poke the waiter when the deadline
		// passes so the poll loop stays event-driven in the common case.
		t := time.AfterFunc(time.Until(deadline), vs.cond.Broadcast)
		vs.cond.Wait()
		t.Stop()
	}
}
