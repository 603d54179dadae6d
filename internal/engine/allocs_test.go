package engine_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/arun"
	"repro/internal/engine"
	"repro/internal/spec"
)

// maxInstanceAllocs bounds the allocations of one whole dense12
// instance run the way internal/engine runs every instance after a
// worker's first: through a recycled arun.Scratch and the worker's
// recycled simulator, resetting the scratch's actors, program states,
// site hosts and trace scopes and the simulator's queue, slab and sites
// in place, driving all twelve attempts, and assembling the outcome.
// maxFreshInstanceAllocs bounds the same instance built fresh, with no
// scratch and a new engine.SimTransport — what internal/serve pays on
// every launch.  Each is its measured count plus 10 %: recycled 17,
// fresh 86.
const (
	maxInstanceAllocs      = 18
	maxFreshInstanceAllocs = 94
)

// maxNetInstanceAllocs bounds one dense12 instance of an engine round
// on the loopback TCP mesh (WAL off): the fewest allocations per
// instance over netAllocRounds rounds of netAllocInstances each.  It
// counts the instance as above plus every message's trip through
// netwire — encode, queue, batch, parse, admit, decode and inbox — and
// every goroutine's allocations, so scheduling moves it: timers,
// wake-ups and smaller batches only ever add, and the fewest of a few
// rounds is the steady figure.  Calibrated on 2 vCPUs (GOMAXPROCS=2):
// single rounds read 257–281 over 16 runs, the fewest of three 253–269
// over 6; the bound is 281 plus 10 %.
const (
	maxNetInstanceAllocs = 310
	netAllocInstances    = 500
	netAllocRounds       = 3
)

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
// benchsmoke runs.  In the recycled case one scratch serves every
// measured run, so all but the warm-up reuse the instance the previous
// run left behind; the fresh case builds every instance from the plan.
// TestAnnounceDeliverZeroAlloc (internal/actor) covers only
// steady-state re-delivery; a dense12 instance is over after 24 facts,
// so every delivery it makes is a first delivery and its cost is
// dominated by building and settling fresh state.
func TestInstanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	plan, err := arun.NewPlan(denseSpec(t, 12, 3), arun.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		scratch   *arun.Scratch
		transport func(seed int64) arun.Transport
		max       int
	}{
		{"recycled", arun.NewScratch(), engine.WorkerSim(), maxInstanceAllocs},
		{"fresh", nil, engine.SimTransport, maxFreshInstanceAllocs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := arun.RunnerOptions{
				IdleTimeout: 10 * time.Second,
				Scratch:     tc.scratch,
				SatCache:    arun.NewSatCache(),
			}
			var runErr error
			allocs := testing.AllocsPerRun(50, func() {
				r, err := plan.NewRunner(tc.transport(7), opt)
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
			t.Logf("one %s dense12 instance: %.0f allocations", tc.name, allocs)
			if allocs > float64(tc.max) {
				t.Fatalf("one %s dense12 instance makes %.0f allocations, want ≤ %d", tc.name, allocs, tc.max)
			}
		})
	}
	t.Run("net", func(t *testing.T) {
		allocs := netRoundAllocs(t, plan, netAllocInstances)
		for i := 1; i < netAllocRounds; i++ {
			allocs = min(allocs, netRoundAllocs(t, plan, netAllocInstances))
		}
		t.Logf("one net dense12 instance: %.0f allocations (fewest of %d rounds of %d)",
			allocs, netAllocRounds, netAllocInstances)
		if allocs > maxNetInstanceAllocs {
			t.Fatalf("one net dense12 instance makes %.0f allocations, want ≤ %d", allocs, maxNetInstanceAllocs)
		}
	})
}

// netRoundAllocs runs one engine round of n dense12 instances on the
// loopback mesh, WAL off, and returns the process's allocations per
// instance: every goroutine's, the mesh's set-up and teardown
// included.
func netRoundAllocs(t testing.TB, plan *arun.Plan, n int) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := engine.RunPlan(plan, engine.Options{Instances: n, Mode: engine.ModeNet, Seed: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fingerprints) != 1 {
		t.Fatalf("net round diverged: %v", res.Fingerprints)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}
