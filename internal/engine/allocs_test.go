package engine_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/arun"
	"repro/internal/engine"
	"repro/internal/spec"
)

// maxInstanceAllocs bounds the allocations of one whole dense12
// instance: building its runner (actors, program states, site hosts),
// driving all twelve attempts through the simulator, and assembling
// the outcome.  It is the measured count (243) plus 10 %.
const maxInstanceAllocs = 267

// denseSpec is the all-pairs precedence workflow over n events spread
// round-robin over sites, one agent attempting e1..en in order: the
// engine workloads' dense12 at n = 12 over 3 sites.
func denseSpec(t testing.TB, n, sites int) *spec.Spec {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "workflow dense%d\n", n)
	for i := 2; i <= n; i++ {
		for j := 1; j < i; j++ {
			fmt.Fprintf(&b, "dep ~e%d + e%d . e%d\n", i, j, i)
		}
	}
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "event e%d site=s%d\n", i, (i-1)%sites+1)
	}
	b.WriteString("agent w site=s1\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "  step e%d think=5\n", i)
	}
	sp, err := spec.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestInstanceAllocs is the whole-instance allocation gate that make
// benchsmoke runs.  TestAnnounceDeliverZeroAlloc (internal/actor)
// covers only steady-state re-delivery; a dense12 instance is over
// after 24 facts, so every delivery it makes is a first delivery and
// its cost is dominated by building and settling fresh state.
func TestInstanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	plan, err := arun.NewPlan(denseSpec(t, 12, 3), arun.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt := arun.RunnerOptions{
		IdleTimeout: 10 * time.Second,
		Scratch:     arun.NewScratch(),
		SatCache:    arun.NewSatCache(),
	}
	var runErr error
	allocs := testing.AllocsPerRun(50, func() {
		r, err := plan.NewRunner(engine.SimTransport(7), opt)
		if err != nil {
			runErr = err
			return
		}
		out, err := r.Run()
		if err == nil && (!out.Satisfied || len(out.Unresolved) > 0) {
			err = fmt.Errorf("instance not satisfied and resolved: %s", out.Fingerprint())
		}
		if err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("one dense12 instance: %.0f allocations", allocs)
	if allocs > maxInstanceAllocs {
		t.Fatalf("one dense12 instance makes %.0f allocations, want ≤ %d", allocs, maxInstanceAllocs)
	}
}
