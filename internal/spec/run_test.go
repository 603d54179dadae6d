package spec_test

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/spec"
)

// TestSpecRunsEndToEnd: the parsed spec runs on every scheduler and
// satisfies its own dependencies.  It is an external test because
// sched imports spec.
func TestSpecRunsEndToEnd(t *testing.T) {
	s, err := spec.ParseString(spec.TravelSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range sched.Kinds() {
		r, err := sched.Run(sched.SpecConfig(s, kind, 42))
		if err != nil {
			t.Fatal(err)
		}
		if !r.Satisfied || len(r.Unresolved) != 0 {
			t.Fatalf("%s: satisfied=%v unresolved=%v trace=%v",
				kind, r.Satisfied, r.Unresolved, r.Trace)
		}
	}
}
