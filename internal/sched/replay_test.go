package sched_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/check"
	"repro/internal/sched"
	"repro/internal/workload"
)

// The golden-replay property: on the deterministic simulator, a fixed
// seed reproduces the decision trace byte for byte — same records,
// same Lamport stamps, same sequence numbers, same JSONL encoding.
// This is what makes a captured trace a faithful artifact of a run
// rather than a sample of one.
//
// Permitted nondeterminism, deliberately outside this test: the
// wall-clock transport (netwire) interleaves goroutines freely, so its
// Lamport stamps and record interleavings vary run to run.  Its traces
// still satisfy every check.Trace invariant (the chaos suite asserts
// exactly that); only the simulator's virtual time promises bytewise
// replay.

// captureRun executes the workload on the distributed simulator
// scheduler with full tracing and returns the causally ordered JSONL
// encoding.
func captureRun(t *testing.T, wl *workload.Workload, seed int64) []byte {
	t.Helper()
	tracer := obs.NewTracer(1)
	tracer.Enable(true)
	cfg := wl.Config(sched.Distributed, seed)
	cfg.Tracer = tracer
	if _, err := sched.Run(cfg); err != nil {
		t.Fatal(err)
	}
	recs := tracer.Records()
	if len(recs) == 0 {
		t.Fatal("run captured no records")
	}
	for _, v := range check.Trace(recs) {
		t.Errorf("trace invariant: %s", v)
	}
	obs.SortCausal(recs)
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGoldenReplay(t *testing.T) {
	workloads := []*workload.Workload{
		workload.Chain(8, 4),
		workload.Diamond(4, 4), // fork-join
		workload.Travel(3),
	}
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			const seed = 1996
			first := captureRun(t, wl, seed)
			second := captureRun(t, wl, seed)
			if !bytes.Equal(first, second) {
				t.Fatalf("replay diverged:\nfirst %d bytes, second %d bytes\n%s",
					len(first), len(second), firstDiff(first, second))
			}
			// A different seed must still verify, byte-equality aside.
			captureRun(t, wl, seed+1)
		})
	}
}

// firstDiff renders the first differing line pair for the failure
// message.
func firstDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  %s\n  %s", i+1, al[i], bl[i])
		}
	}
	return "traces are a prefix of each other"
}
