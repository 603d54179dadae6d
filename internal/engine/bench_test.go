package engine_test

import (
	"testing"
	"time"

	"repro/internal/arun"
	"repro/internal/engine"
)

// BenchmarkDense12Instance runs one dense12 instance per iteration on
// the engine's simulator transport through one recycled arun.Scratch:
// the steady-state unit of the engine's sim mode.  `make profile`
// writes its CPU profile.
func BenchmarkDense12Instance(b *testing.B) {
	plan, err := arun.NewPlan(denseSpec(b, 12, 3), arun.PlanOptions{})
	if err != nil {
		b.Fatal(err)
	}
	opt := arun.RunnerOptions{
		IdleTimeout: 10 * time.Second,
		Scratch:     arun.NewScratch(),
		SatCache:    arun.NewSatCache(),
	}
	sim := engine.WorkerSim()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := plan.NewRunner(sim(int64(i)), opt)
		if err != nil {
			b.Fatal(err)
		}
		out, err := r.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !out.Satisfied || len(out.Unresolved) > 0 {
			b.Fatalf("instance not satisfied and resolved: %s", out.Fingerprint())
		}
	}
}

// BenchmarkDense12NetRound runs one engine round of dense12 instances
// per iteration on the loopback TCP mesh, WAL off: the unit of the
// engine's net mode, mesh set-up and teardown included.  `make
// profilenet` writes its CPU profile.
func BenchmarkDense12NetRound(b *testing.B) {
	const instances = 500
	plan, err := arun.NewPlan(denseSpec(b, 12, 3), arun.PlanOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var allocs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		allocs += netRoundAllocs(b, plan, instances)
	}
	b.ReportMetric(float64(b.N*instances)/b.Elapsed().Seconds(), "instances/s")
	b.ReportMetric(allocs/float64(b.N), "allocs/instance")
}
