package engine_test

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/arun"
	"repro/internal/engine"
	"repro/internal/simnet"
	"repro/internal/spec"
)

// engineSpecs are the differential workloads.  chain and fork are
// confluent: one maximal trace regardless of timing, so every engine
// instance must land on the serial oracle's fingerprint exactly.
// travel is order-sensitive — see the confluent map below.
func engineSpecs(t testing.TB) map[string]*spec.Spec {
	t.Helper()
	f, err := os.Open("../../testdata/travel.wf")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	travel, err := spec.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	parse := func(src string) *spec.Spec {
		s, err := spec.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return map[string]*spec.Spec{
		"travel": travel,
		"chain": parse(`workflow chain
dep ~b + a . b
dep ~c + b . c
dep ~d + c . d
event a site=s1
event b site=s2
event c site=s3
event d site=s4
agent w site=s1
  step a think=5
  step b think=5
  step c think=5
  step d think=5
`),
		"fork": parse(`workflow fork
dep ~l + start . l
dep ~r + start . r
dep ~join + l . join
dep ~join + r . join
event start site=s0
event l site=s1
event r site=s2
event join site=s3
agent left site=s1
  step start think=5
  step l think=10
agent right site=s2
  step r think=12
agent fin site=s3
  step join think=30
`),
	}
}

// oracleFingerprint runs the spec once, serially, on the default
// simulator — the single-instance oracle every engine instance must
// reproduce.
func oracleFingerprint(t testing.TB, sp *spec.Spec) string {
	t.Helper()
	plan, err := arun.NewPlan(sp, arun.PlanOptions{Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := plan.NewRunner(arun.NewSimTransport(1996, nil), arun.RunnerOptions{IdleTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Satisfied || len(out.Unresolved) > 0 {
		t.Fatalf("oracle run incomplete: %s", out.Fingerprint())
	}
	return out.Fingerprint()
}

func checkAgainstOracle(t *testing.T, res *engine.Result, want string, instances int) {
	t.Helper()
	total := 0
	for fp, n := range res.Fingerprints {
		total += n
		if fp != want {
			t.Errorf("%d instance(s) diverged from the oracle:\n oracle %s\n got    %s", n, want, fp)
		}
	}
	if total != instances {
		t.Errorf("fingerprints cover %d instances, want %d", total, instances)
	}
	if res.Fires == 0 || res.Decisions == 0 {
		t.Errorf("no observed activity: fires=%d decisions=%d", res.Fires, res.Decisions)
	}
}

// verifyResult applies the two-tier differential criterion to an
// engine run: confluent workloads must match the serial oracle's
// fingerprint in every instance; order-sensitive ones must still
// resolve every event, satisfy every dependency, and never record
// both polarities.  The run must use KeepOutcomes so the second tier
// can inspect each instance.
func verifyResult(t *testing.T, name string, sp *spec.Spec, res *engine.Result, instances int) {
	t.Helper()
	if confluent[name] {
		checkAgainstOracle(t, res, oracleFingerprint(t, sp), instances)
		return
	}
	if len(res.Outcomes) != instances {
		t.Fatalf("kept %d outcomes, want %d (order-sensitive verification needs KeepOutcomes)", len(res.Outcomes), instances)
	}
	for i, out := range res.Outcomes {
		checkComplete(t, fmt.Sprintf("instance %d", i), out)
	}
	if res.Fires == 0 || res.Decisions == 0 {
		t.Errorf("no observed activity: fires=%d decisions=%d", res.Fires, res.Decisions)
	}
}

// TestEngineMatchesOracleSim: a modest multi-instance sim run agrees
// with the serial oracle on every workload.
func TestEngineMatchesOracleSim(t *testing.T) {
	for name, sp := range engineSpecs(t) {
		t.Run(name, func(t *testing.T) {
			res, err := engine.Run(sp, engine.Options{Instances: 32, Workers: 4, Seed: 7, KeepOutcomes: true})
			if err != nil {
				t.Fatal(err)
			}
			verifyResult(t, name, sp, res, 32)
		})
	}
}

// TestEngineStress256 runs at least 256 concurrent instances per
// workload with widened per-instance jitter, so the interleavings
// inside each simulated mesh genuinely vary, and applies the two-tier
// differential criterion to every instance.  Runs under -race in the
// CI gate (make race / enginestress).
func TestEngineStress256(t *testing.T) {
	for name, sp := range engineSpecs(t) {
		t.Run(name, func(t *testing.T) {
			res, err := engine.Run(sp, engine.Options{
				Instances:    256,
				Workers:      16,
				Seed:         42,
				Jitter:       500,
				KeepOutcomes: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			verifyResult(t, name, sp, res, 256)
		})
	}
}

// TestEngineChaosSim: instances under seeded fault plans (modelled
// drops, duplicates, delays, reorders) still satisfy the differential
// criterion — the per-instance reliable link masks everything.
func TestEngineChaosSim(t *testing.T) {
	plans := []*simnet.FaultPlan{
		{Seed: 5, Drop: 0.25, Dup: 0.2, Delay: 0.2, Reorder: 0.1, RTO: 400},
		{Seed: 6, Drop: 0.5, RTO: 300},
	}
	for name, sp := range engineSpecs(t) {
		t.Run(name, func(t *testing.T) {
			for _, fp := range plans {
				res, err := engine.Run(sp, engine.Options{
					Instances: 24, Workers: 8, Seed: 11, Jitter: 300, Fault: fp,
					KeepOutcomes: true,
				})
				if err != nil {
					t.Fatalf("plan seed %d: %v", fp.Seed, err)
				}
				verifyResult(t, name, sp, res, 24)
			}
		})
	}
}

// confluent marks workloads whose outcome is invariant under timing:
// jitter seed, fault plans, and the pipelined drive's attempt overlap
// (verified by a 290-combination seed/plan sweep of the serial
// runtime).  travel is not in the set: its cancel/commit race
// legitimately resolves by whether the buy attempt finds the booking
// already propagated, so plain serial runs already diverge from the
// seed-1996 fingerprint at other jitter seeds (16, 20, 22, ... with
// no faults at all) — both outcomes are complete maximal traces.  For
// such workloads the engine asserts per-instance completeness
// invariants instead of oracle equality — the same tier the chaos
// suite applies to mutex.  See DESIGN.md, decision 13.
var confluent = map[string]bool{"chain": true, "fork": true}

// checkComplete asserts an outcome is a complete, consistent maximal
// trace (the order-sensitive tier of the differential criterion).
func checkComplete(t *testing.T, label string, out *arun.Outcome) {
	t.Helper()
	if !out.Satisfied {
		t.Errorf("%s: dependencies unsatisfied: %s", label, out.Fingerprint())
	}
	if len(out.Unresolved) > 0 {
		t.Errorf("%s: events unresolved: %s", label, out.Fingerprint())
	}
	for sym := range out.Occurred {
		if len(sym) > 0 && sym[0] != '~' {
			if _, both := out.Occurred["~"+sym]; both {
				t.Errorf("%s: %s occurred with both polarities: %s", label, sym, out.Fingerprint())
			}
		}
	}
}

// TestEngineNetMode: instances share one loopback TCP mesh with
// instance-tagged frames and per-instance completion.  Confluent
// workloads must agree with the sim oracle exactly; the order-
// sensitive travel workflow must still resolve completely and
// consistently in every instance.
func TestEngineNetMode(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP mesh engine run in -short mode")
	}
	for name, sp := range engineSpecs(t) {
		t.Run(name, func(t *testing.T) {
			res, err := engine.Run(sp, engine.Options{
				Instances: 48, Mode: engine.ModeNet,
				IdleTimeout: 30 * time.Second, KeepOutcomes: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			verifyResult(t, name, sp, res, 48)
		})
	}
}

// TestEngineChaosNet: the shared TCP mesh under a seeded fault plan —
// whole batch frames dropped, duplicated, and delayed — still drives
// every instance to the differential criterion, and the interleaved
// fan-out of concurrent instances actually exercises the batch path.
func TestEngineChaosNet(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP mesh chaos run in -short mode")
	}
	fp := &simnet.FaultPlan{Seed: 13, Drop: 0.25, Dup: 0.2, Delay: 0.15, DelayMax: 2000}
	for name, sp := range engineSpecs(t) {
		t.Run(name, func(t *testing.T) {
			res, err := engine.Run(sp, engine.Options{
				Instances: 16, Mode: engine.ModeNet, Fault: fp,
				IdleTimeout: 30 * time.Second, KeepOutcomes: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			verifyResult(t, name, sp, res, 16)
			if res.Batches == 0 {
				t.Error("concurrent instances produced no batch frames")
			}
		})
	}
}

// TestEngineKeepOutcomes: outcome retention returns one complete
// outcome per instance ID.
func TestEngineKeepOutcomes(t *testing.T) {
	sp := engineSpecs(t)["chain"]
	want := oracleFingerprint(t, sp)
	res, err := engine.Run(sp, engine.Options{Instances: 8, Workers: 3, KeepOutcomes: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 8 {
		t.Fatalf("kept %d outcomes, want 8", len(res.Outcomes))
	}
	for i, out := range res.Outcomes {
		if out == nil {
			t.Fatalf("instance %d outcome missing", i)
		}
		if out.Fingerprint() != want {
			t.Errorf("instance %d diverged: %s", i, out.Fingerprint())
		}
	}
}
