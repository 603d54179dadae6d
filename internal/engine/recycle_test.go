package engine_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/arun"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/spec"
)

// recycleRun is everything a run of one seed must reproduce whether
// its actors were built fresh or recycled from a scratch.
type recycleRun struct {
	fingerprint     string
	decisions, anns int
	digest          string
	records         []obs.Record
}

// runRecycled runs one instance of the plan at the seed on the
// simulator transport sim hands out (engine.SimTransport builds fresh,
// engine.WorkerSim recycles one), through the scratch (nil builds
// fresh), with the tracer capturing every record from zero.
func runRecycled(t *testing.T, plan *arun.Plan, sc *arun.Scratch, sim func(int64) arun.Transport, tracer *obs.Tracer, seed int64) recycleRun {
	t.Helper()
	tracer.Reset()
	r, err := plan.NewRunner(sim(seed), arun.RunnerOptions{
		IdleTimeout: 10 * time.Second,
		Scratch:     sc,
		Tracer:      tracer,
		Instance:    uint32(seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return recycleRun{
		fingerprint: out.Fingerprint(),
		decisions:   out.Decisions,
		anns:        out.Announcements,
		digest:      r.StateDigest(),
		records:     tracer.Records(),
	}
}

// recycleSpecs are the specs the recycling check runs: every workflow
// in testdata/ plus dense12.
func recycleSpecs(t *testing.T) map[string]*spec.Spec {
	t.Helper()
	files, err := filepath.Glob("../../testdata/*.wf")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata workflows: %v", err)
	}
	specs := map[string]*spec.Spec{"dense12": denseSpec(t, 12, 3)}
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := spec.Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		specs[filepath.Base(file)] = sp
	}
	return specs
}

// TestScratchRecyclingEquivalence: a run whose actors a Scratch
// recycles is indistinguishable from a run on freshly built ones.  Per
// seed, the outcome fingerprint, the decision and announcement counts,
// the runner's complete state digest (every actor's facts, round
// counter, holds and promises) and the traced record sequence must be
// equal — with tracing on and off.  The scratch and the worker
// simulator are carried across all seeds of a spec, so every run after
// the first resets the previous run's actors and simulator.
func TestScratchRecyclingEquivalence(t *testing.T) {
	const seeds = 20
	specs := recycleSpecs(t)
	for name, sp := range specs {
		t.Run(name, func(t *testing.T) {
			plan, err := arun.NewPlan(sp, arun.PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sc, sim := arun.NewScratch(), engine.WorkerSim()
			freshTracer, reusedTracer := obs.NewTracer(1), obs.NewTracer(1)
			for _, traced := range []bool{true, false} {
				for _, tr := range []*obs.Tracer{freshTracer, reusedTracer} {
					if traced {
						tr.Enable(true)
					} else {
						tr.Disable()
					}
				}
				for seed := int64(0); seed < seeds; seed++ {
					fresh := runRecycled(t, plan, nil, engine.SimTransport, freshTracer, seed)
					reused := runRecycled(t, plan, sc, sim, reusedTracer, seed)
					if traced && len(fresh.records) == 0 {
						t.Fatal("traced run captured no records")
					}
					if !reflect.DeepEqual(fresh, reused) {
						t.Fatalf("traced=%v seed %d: recycled run differs from a fresh one:\n fresh  %s decisions=%d anns=%d records=%d\n%s\n reused %s decisions=%d anns=%d records=%d\n%s",
							traced, seed,
							fresh.fingerprint, fresh.decisions, fresh.anns, len(fresh.records), fresh.digest,
							reused.fingerprint, reused.decisions, reused.anns, len(reused.records), reused.digest)
					}
				}
			}
		})
	}

	// A scratch last used by one plan must rebuild for another: its
	// actors belong to the first plan's events.
	t.Run("plan-switch", func(t *testing.T) {
		planA, err := arun.NewPlan(specs["dense12"], arun.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		planB, err := arun.NewPlan(specs["travel.wf"], arun.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tracer := obs.NewTracer(1)
		sc, sim := arun.NewScratch(), engine.WorkerSim()
		for i, plan := range []*arun.Plan{planA, planB, planB, planA} {
			seed := int64(i)
			fresh := runRecycled(t, plan, nil, engine.SimTransport, tracer, seed)
			reused := runRecycled(t, plan, sc, sim, tracer, seed)
			if !reflect.DeepEqual(fresh, reused) {
				t.Fatalf("run %d: scratch carried across plans differs from a fresh build:\n fresh  %s\n%s\n reused %s\n%s",
					i, fresh.fingerprint, fresh.digest, reused.fingerprint, reused.digest)
			}
		}
	})
}
