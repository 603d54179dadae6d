package engine_test

import (
	"testing"

	"repro/internal/arun"
	"repro/internal/engine"
	"repro/internal/obs"
)

// actorCounters are the per-message protocol counts every actor
// tallies and its instance publishes once.
var actorCounters = []string{"actor.attempts", "actor.announcements", "actor.fires", "actor.rejects", "actor.inquiries"}

// actorCounts reads the actor.* counters of a snapshot diff.
func actorCounts(d obs.Snapshot) [5]int64 {
	var out [5]int64
	for i, name := range actorCounters {
		m, _ := d.Get(name)
		out[i] = m.Value
	}
	return out
}

// TestActorCountsExact: the actor.* counters move by exactly the sum of
// the instances' protocol steps.  A dense12 instance attempts its
// twelve events once each, fires them all, and delivers each fire to
// the other eleven actors, with no rejection and no inquiry.
func TestActorCountsExact(t *testing.T) {
	plan, err := arun.NewPlan(denseSpec(t, 12, 3), arun.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	before := obs.Default.Snapshot()
	if _, err := engine.RunPlan(plan, engine.Options{Instances: n, Workers: 2, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	got := actorCounts(obs.Default.Snapshot().Diff(before))
	want := [5]int64{n * 12, n * 132, n * 12, 0, 0}
	if got != want {
		t.Fatalf("actor counts over %d instances: %v (attempts, announcements, fires, rejects, inquiries), want %v", n, got, want)
	}
}
