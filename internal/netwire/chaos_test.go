package netwire_test

import (
	"os"
	"testing"
	"time"

	"repro/internal/arun"
	"repro/internal/netwire"
	"repro/internal/obs"
	"repro/internal/obs/check"
	"repro/internal/simnet"
	"repro/internal/spec"
)

// The differential chaos suite: every workflow below runs three ways —
// on the deterministic simulator with no faults (the oracle), on the
// simulator under a seeded fault plan, and on the real TCP mesh under
// the same plan.  The criterion has two tiers:
//
//   - Confluent workflows (one maximal trace up to timing) must
//     reproduce the oracle's outcome exactly under every fault plan on
//     both transports: faults may force retransmissions and head-of-
//     line delays, but at-least-once FIFO delivery makes them
//     invisible.
//
//   - Order-sensitive workflows (mutex: several valid maximal traces,
//     and fault latency legitimately tips which one emerges) must
//     still fully resolve, satisfy every dependency, and never occur a
//     base event with both polarities — and, crucially, the simulator
//     and the TCP mesh must agree with EACH OTHER exactly under the
//     same plan.  That pairwise check is the differential heart: the
//     wire transport adds no behaviours the modelled link lacks.

// orderSensitive marks workflows whose outcome legitimately depends on
// message timing (multiple valid maximal traces).
var orderSensitive = map[string]bool{"mutex": true}

// chaosSpecs are the workflows under test: the two shipped examples
// plus three synthetic shapes (pipeline, fork-join, saga with
// rejection).
func chaosSpecs(t *testing.T) map[string]*spec.Spec {
	t.Helper()
	load := func(path string) *spec.Spec {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		s, err := spec.Parse(f)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	parse := func(src string) *spec.Spec {
		s, err := spec.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return map[string]*spec.Spec{
		"travel": load("../../testdata/travel.wf"),
		"mutex":  load("../../testdata/mutex.wf"),
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
		"saga": parse(`workflow saga
dep ~c_res + res . c_res
dep ~c_pay + c_res . c_pay
dep ~refund + ~c_pay
event res site=s1
event c_res site=s1
event c_pay site=s2
event refund site=s3 triggerable
agent a site=s1
  step res think=5
  step c_res think=10
agent b site=s2
  step c_pay think=30 onreject=~c_pay
agent c site=s3
  step refund think=50
`),
	}
}

// chaosPlans builds the seeded fault schedules; the partition plan is
// parameterized by the spec's sites.
func chaosPlans(sites []simnet.SiteID) []*simnet.FaultPlan {
	plans := []*simnet.FaultPlan{
		{Seed: 1, Drop: 0.3, RTO: 500},
		{Seed: 2, Dup: 0.4},
		{Seed: 3, Delay: 0.5, DelayMax: 4000},
		{Seed: 4, Reorder: 0.4, ReorderDelay: 3000},
		{Seed: 5, Drop: 0.25, Dup: 0.2, Delay: 0.2, Reorder: 0.1, RTO: 400},
		{Seed: 6, Drop: 0.5, RTO: 300},
		{Seed: 7, Drop: 0.15, Dup: 0.15, RTO: 500},
		{Seed: 8, Drop: 0.35, Delay: 0.25, DelayMax: 2500, RTO: 600},
	}
	if len(sites) >= 2 {
		// Plan 7 additionally severs the first two sites for the first
		// 20ms of the run; the link must buffer and heal.
		plans[6].Partitions = []simnet.Partition{
			{A: sites[0], B: sites[1], From: 0, Until: 20_000},
		}
	}
	return plans
}

// chaosRun executes the spec on the transport with full decision
// tracing and validates the capture against the protocol invariants
// (internal/obs/check) — every workflow × fault plan × transport run
// in the suite gets its trace checked, not just its outcome.
func chaosRun(t *testing.T, sp *spec.Spec, tr arun.Transport) *arun.Outcome {
	t.Helper()
	defer tr.Close()
	tracer := obs.NewTracer(1)
	tracer.Enable(true) // full capture: the checker needs every record
	plan, err := arun.NewPlan(sp, arun.PlanOptions{Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := plan.NewRunner(tr, arun.RunnerOptions{IdleTimeout: 30 * time.Second, Tracer: tracer, Instance: tracer.NextInst()})
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range check.Trace(tracer.Records()) {
		t.Errorf("trace invariant: %s", v)
	}
	return out
}

// checkInvariants asserts the outcome is a complete, consistent
// maximal trace: everything resolved, all dependencies satisfied, and
// no base event occurred with both polarities.
func checkInvariants(t *testing.T, label string, out *arun.Outcome) {
	t.Helper()
	if !out.Satisfied {
		t.Errorf("%s: dependencies unsatisfied: %s", label, out.Fingerprint())
	}
	if len(out.Unresolved) > 0 {
		t.Errorf("%s: events unresolved: %s", label, out.Fingerprint())
	}
	occurred := map[string]bool{}
	for _, k := range out.Trace {
		occurred[k] = true
	}
	for sym := range occurred {
		if len(sym) > 0 && sym[0] != '~' {
			if _, both := occurred["~"+sym]; both {
				t.Errorf("%s: %s occurred with both polarities: %s", label, sym, out.Fingerprint())
			}
		}
	}
}

func TestDifferentialChaos(t *testing.T) {
	for name, sp := range chaosSpecs(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sites := arun.Sites(sp)
			oracle := chaosRun(t, sp, arun.NewSimTransport(1996, nil))
			want := oracle.Fingerprint()
			if !oracle.Satisfied {
				t.Fatalf("oracle run unsatisfied: %s", want)
			}
			if len(oracle.Unresolved) > 0 {
				t.Fatalf("oracle left events unresolved: %s", want)
			}
			for _, fp := range chaosPlans(sites) {
				simOut := chaosRun(t, sp, arun.NewSimTransport(1996, fp))
				mesh, err := netwire.NewMesh(arun.DefaultDriver, sites, fp)
				if err != nil {
					t.Fatal(err)
				}
				wireOut := chaosRun(t, sp, mesh)
				if orderSensitive[name] {
					checkInvariants(t, "simulator", simOut)
					checkInvariants(t, "netwire", wireOut)
					if simOut.Fingerprint() != wireOut.Fingerprint() {
						t.Errorf("seed %d: transports disagree under the same plan:\n sim  %s\n wire %s",
							fp.Seed, simOut.Fingerprint(), wireOut.Fingerprint())
					}
					continue
				}
				if got := simOut.Fingerprint(); got != want {
					t.Errorf("seed %d: simulator under faults diverged:\n oracle %s\n faulty %s",
						fp.Seed, want, got)
				}
				if got := wireOut.Fingerprint(); got != want {
					t.Errorf("seed %d: netwire under faults diverged:\n oracle %s\n wire   %s",
						fp.Seed, want, got)
				}
			}
		})
	}
}
