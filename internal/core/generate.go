package core

import "repro/internal/algebra"

// Generates reports whether the workflow generates the trace u under
// Definition 4: every event of u is permitted, at the moment it
// occurs, by its guard under every dependency of the workflow.
//
// Guards of unmentioned events are included, exactly as Definition 4
// quantifies over all D ∈ W; on maximal traces this coincides with the
// mention-filtered guards Compile produces (asserted by the Theorem 6
// tests).
func Generates(w *Workflow, u algebra.Trace, sy *Synthesizer) bool {
	if sy == nil {
		sy = NewSynthesizer()
	}
	for j := 0; j < len(u); j++ {
		for _, d := range w.Deps {
			g := sy.Guard(d, u[j])
			if !g.EvalAt(u, j) {
				return false
			}
		}
	}
	return true
}

// GeneratesCompiled is Generates using a compiled guard table (the
// mention-filtered conjunction the scheduler executes).
func GeneratesCompiled(c *Compiled, u algebra.Trace) bool {
	for j := 0; j < len(u); j++ {
		if !c.GuardOf(u[j]).EvalAt(u, j) {
			return false
		}
	}
	return true
}

// SatisfiesAll reports whether the trace satisfies every dependency of
// the workflow.
func SatisfiesAll(w *Workflow, u algebra.Trace) bool {
	for _, d := range w.Deps {
		if !u.Satisfies(d) {
			return false
		}
	}
	return true
}

// GeneratedTraces enumerates the maximal traces over the workflow's
// alphabet that the workflow generates, using compiled guards.  It is
// exponential in the alphabet and exists for Theorem 6 verification
// and the T6 experiment.
func GeneratedTraces(c *Compiled) []algebra.Trace {
	var out []algebra.Trace
	for _, u := range algebra.MaximalUniverse(c.Workflow.Alphabet()) {
		if GeneratesCompiled(c, u) {
			out = append(out, u)
		}
	}
	return out
}
