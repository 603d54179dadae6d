package arun_test

import (
	"os"
	"testing"
	"time"

	"repro/internal/arun"
	"repro/internal/netwire"
	"repro/internal/spec"
)

func loadSpec(t *testing.T, path string) *spec.Spec {
	t.Helper()
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

// runOn executes the spec over the given transport and returns the
// outcome.
func runOn(t *testing.T, sp *spec.Spec, tr arun.Transport) *arun.Outcome {
	t.Helper()
	defer tr.Close()
	plan, err := arun.NewPlan(sp, arun.PlanOptions{Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := plan.NewRunner(tr, arun.RunnerOptions{IdleTimeout: 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTravelAcrossTransports runs the travel workflow over the
// simulator and the loopback TCP mesh, and demands identical final
// outcomes.
func TestTravelAcrossTransports(t *testing.T) {
	sp := loadSpec(t, "../../testdata/travel.wf")

	oracle := runOn(t, sp, arun.NewSimTransport(1, nil))
	if !oracle.Satisfied {
		t.Fatalf("oracle run unsatisfied: %s", oracle.Fingerprint())
	}
	if len(oracle.Unresolved) > 0 {
		t.Fatalf("oracle left events unresolved: %v", oracle.Unresolved)
	}

	mesh, err := netwire.NewMesh(arun.DefaultDriver, arun.Sites(sp), nil)
	if err != nil {
		t.Fatal(err)
	}
	wire := runOn(t, sp, mesh)
	if wire.Fingerprint() != oracle.Fingerprint() {
		t.Errorf("netwire diverged:\n oracle %s\n wire   %s",
			oracle.Fingerprint(), wire.Fingerprint())
	}
}

// TestSimOracleDeterminism: the simulator-backed runner is a function
// of the seed — two runs agree exactly, including the trace order.
func TestSimOracleDeterminism(t *testing.T) {
	sp := loadSpec(t, "../../testdata/mutex.wf")
	a := runOn(t, sp, arun.NewSimTransport(7, nil))
	b := runOn(t, sp, arun.NewSimTransport(7, nil))
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("oracle not deterministic:\n %s\n %s", a.Fingerprint(), b.Fingerprint())
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("trace lengths differ: %v vs %v", a.Trace, b.Trace)
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("traces differ at %d: %v vs %v", i, a.Trace, b.Trace)
		}
	}
}

// TestDriverCollision: placing an event on the driver site is refused.
func TestDriverCollision(t *testing.T) {
	sp, err := spec.ParseString("dep ~a + b\nevent a site=ctl\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arun.NewPlan(sp, arun.PlanOptions{Observe: true}); err == nil {
		t.Fatal("expected driver-site collision error")
	}
}
