package arun

import (
	"fmt"

	"repro/internal/algebra"
)

// Externally-driven runs.  Run drives a spec's scripted agents to
// completion in one call; a serving daemon instead keeps a Runner open
// and feeds it attempts as they arrive over the wire — each announce
// is one Attempt, and Finish closes the run out when the caller (or a
// drain) decides no more events are coming.  Both entry points reuse
// Run's attempt submission and drive loop, so an
// externally-fed instance reaches the same outcome fingerprint as a
// scripted run that attempted the same events in the same order.

// Attempt submits one externally-originated attempt of sym from the
// driver site and waits for the run to settle.  It reports whether a
// decision for this symbol arrived (an attempt can legally park behind
// an outstanding inquiry — a later attempt or Finish resolves it) and,
// when decided, whether the event was accepted.  Callers must
// serialize Attempt/Finish per Runner.
func (r *Runner) Attempt(sym algebra.Symbol, forced bool) (decided, accepted bool, err error) {
	if err := r.submit(sym, forced); err != nil {
		return false, false, err
	}
	if !r.tr.WaitIdle(r.timeout) {
		return false, false, fmt.Errorf("arun: transport did not quiesce after external attempt %s", sym)
	}
	d, ok := r.takeDecision(sym.Key())
	if !ok {
		return false, false, nil
	}
	return true, d.Accepted, nil
}

// Resolved reports whether either polarity of base has occurred — the
// serving layer's per-event status probe.
func (r *Runner) Resolved(base algebra.Symbol) bool { return r.resolved(base) }

// Finish closes an externally-driven run out to a maximal trace and
// returns the outcome: Run's drive loop with no agent scripts.  For
// every unresolved base event it first attempts the complement ("this
// will never occur"); where that is refused — the event is obligated —
// it attempts the event itself.  Idempotent in effect: once every base
// is resolved the passes are no-ops and the outcome is stable.
func (r *Runner) Finish() (*Outcome, error) { return r.drive(nil) }
