package sched

import (
	"fmt"

	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/task"
)

// AgentFromTask builds an agent script that walks a task instance
// (paper §2, Figure 1) through the scheduler: each plan entry is a
// significant event label of the skeleton, attempted in order with the
// given think time.
//
// Event attributes translate to protocol behavior: non-rejectable
// events (like abort) are attempted Forced — the scheduler has no
// choice but to accept them — and a rejected step falls back to the
// skeleton's abort event when one is possible, which is how a
// transaction whose commit is refused aborts instead.
func AgentFromTask(in *task.Instance, site simnet.SiteID, plan []string, think simnet.Time) (*spec.AgentScript, error) {
	if site == "" {
		return nil, fmt.Errorf("sched: task agent %s needs a site", in.ID)
	}
	// Validate the plan against the skeleton by walking a copy.
	walk := *in
	script := &spec.AgentScript{ID: in.ID, Site: site}
	for _, label := range plan {
		if err := walk.Apply(label); err != nil {
			return nil, fmt.Errorf("sched: task agent %s: %w", in.ID, err)
		}
		attrs := in.Skel.EventAttrsOf(label)
		step := spec.Step{
			Sym:    in.Symbol(label),
			Forced: !attrs.Rejectable,
			Think:  think,
		}
		if attrs.Rejectable && label != "abort" && skeletonHasAbort(in.Skel) {
			step.OnReject = []spec.Step{{
				Sym:    in.Symbol("abort"),
				Forced: true,
				Think:  think,
			}}
		}
		script.Steps = append(script.Steps, step)
	}
	// After the plan, declare the events that can no longer occur:
	// their complements are attempted so that dependencies on this
	// task's non-occurrence resolve (e.g. "commit only if the other
	// task never aborts" becomes decidable once it commits).
	occurred := map[string]bool{}
	for _, label := range plan {
		occurred[label] = true
	}
	reachable := in.Skel.ReachableEvents(walk.State)
	for _, label := range in.Skel.EventNames() {
		if occurred[label] || reachable[label] {
			continue
		}
		script.Steps = append(script.Steps, spec.Step{
			Sym:   in.Symbol(label).Complement(),
			Think: think,
		})
	}
	return script, nil
}

func skeletonHasAbort(sk *task.Skeleton) bool {
	for _, e := range sk.EventNames() {
		if e == "abort" {
			return true
		}
	}
	return false
}
