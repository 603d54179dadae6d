package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/mc"
	"repro/internal/spec"
)

func TestRunAllSchedulers(t *testing.T) {
	for _, file := range []string{"../../testdata/travel.wf", "../../testdata/mutex.wf"} {
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run(f, &out, "sim", "all", "", 1, 0, 1996, true, "", walOpts{}); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		f.Close()
		text := out.String()
		for _, want := range []string{
			"== distributed ==",
			"== central-residuation ==",
			"== central-automata ==",
			"satisfied: true",
			"accept",
		} {
			if !strings.Contains(text, want) {
				t.Errorf("%s: output missing %q\n%s", file, want, text)
			}
		}
		if strings.Contains(text, "UNRESOLVED") {
			t.Errorf("%s: run stalled:\n%s", file, text)
		}
	}
}

// TestRunAsyncTransports exercises the asynchronous net transport
// through the CLI path.
func TestRunAsyncTransports(t *testing.T) {
	f, err := os.Open("../../testdata/travel.wf")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out bytes.Buffer
	if err := run(f, &out, "net", "distributed", "", 1, 0, 1, false, "", walOpts{}); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "== distributed over net ==") {
		t.Errorf("missing header:\n%s", text)
	}
	if !strings.Contains(text, "satisfied: true") {
		t.Errorf("run not satisfied:\n%s", text)
	}
	if strings.Contains(text, "UNRESOLVED") {
		t.Errorf("run stalled:\n%s", text)
	}
}

// TestRunEngineInstances exercises the multi-instance engine through
// the CLI path on both supported transports.
func TestRunEngineInstances(t *testing.T) {
	for _, transport := range []string{"sim", "net"} {
		f, err := os.Open("../../testdata/travel.wf")
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err = run(f, &out, transport, "distributed", "", 16, 4, 1996, false, "", walOpts{})
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", transport, err)
		}
		text := out.String()
		if !strings.Contains(text, "== engine over "+transport+" (16 instances") {
			t.Errorf("%s: missing engine header:\n%s", transport, text)
		}
		if !strings.Contains(text, "satisfied=true") {
			t.Errorf("%s: instances not satisfied:\n%s", transport, text)
		}
		if !strings.Contains(text, "instances/s") {
			t.Errorf("%s: missing throughput line:\n%s", transport, text)
		}
	}
	var out bytes.Buffer
	if err := run(strings.NewReader("dep ~a + b"), &out, "carrier-pigeon", "distributed", "", 2, 0, 1, false, "", walOpts{}); err == nil {
		t.Fatal("-instances over an unknown transport must error")
	}
}

// TestRunOrderReplay closes the counterexample loop: every admitted
// maximal trace of the travel example, fed back through -order in the
// exact syntax the model checker's ReplayCmd prints, must re-drive
// the distributed scheduler to a satisfied run whose realized trace
// is itself admitted.  (The scheduler parks attempts whose guards are
// not yet decidable, so the realized order may be a different
// admissible linearization of the requested attempts — the replay
// pins the attempt order, the checker's semantics pin the outcome.)
func TestRunOrderReplay(t *testing.T) {
	f, err := os.Open("../../testdata/travel.wf")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spec.Parse(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	admitted, err := mc.AdmittedTraces(sp.Workflow, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(admitted) == 0 {
		t.Fatal("no admitted traces")
	}
	admittedSet := map[string]bool{}
	for _, u := range admitted {
		keys := make([]string, len(u))
		for i, s := range u {
			keys[i] = s.Key()
		}
		admittedSet[strings.Join(keys, " ")] = true
	}
	checked := 0
	for _, u := range admitted {
		keys := make([]string, len(u))
		for i, s := range u {
			keys[i] = s.Key()
		}
		order := strings.Join(keys, ",")
		g, err := os.Open("../../testdata/travel.wf")
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err = run(g, &out, "sim", "distributed", order, 1, 0, 1996, false, "", walOpts{})
		g.Close()
		if err != nil {
			t.Fatalf("-order %s: %v", order, err)
		}
		text := out.String()
		if !strings.Contains(text, "satisfied: true") {
			t.Errorf("-order %s: replay not satisfied:\n%s", order, text)
		}
		realized := realizedTrace(t, text)
		if !admittedSet[realized] {
			t.Errorf("-order %s: realized trace <%s> is not an admitted maximal trace:\n%s", order, realized, text)
		}
		checked++
	}
	t.Logf("replayed %d admitted maximal traces through -order", checked)

	// Out-of-alphabet and malformed orders are rejected up front.
	var out bytes.Buffer
	g, _ := os.Open("../../testdata/travel.wf")
	if err := run(g, &out, "sim", "distributed", "s_buy,warp_core", 1, 0, 1, false, "", walOpts{}); err == nil ||
		!strings.Contains(err.Error(), "not in the workflow alphabet") {
		t.Errorf("out-of-alphabet order: err = %v", err)
	}
	g.Close()
	g, _ = os.Open("../../testdata/travel.wf")
	if err := run(g, &out, "sim", "distributed", "s_buy,+", 1, 0, 1, false, "", walOpts{}); err == nil ||
		!strings.Contains(err.Error(), "-order") {
		t.Errorf("malformed order: err = %v", err)
	}
	g.Close()
}

// realizedTrace extracts the space-joined symbol keys from a report's
// "trace:     <k1 k2 …>" line.
func realizedTrace(t *testing.T, text string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "trace:") {
			continue
		}
		v := strings.TrimSpace(strings.TrimPrefix(line, "trace:"))
		return strings.Trim(v, "<>[]")
	}
	t.Fatalf("no trace line in:\n%s", text)
	return ""
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader("nonsense"), &out, "sim", "distributed", "", 1, 0, 1, false, "", walOpts{}); err == nil {
		t.Fatal("bad spec must error")
	}
	if err := run(strings.NewReader("dep ~a + b"), &out, "sim", "warp", "", 1, 0, 1, false, "", walOpts{}); err == nil {
		t.Fatal("unknown scheduler must error")
	}
	for _, transport := range []string{"carrier-pigeon", "live"} {
		if err := run(strings.NewReader("dep ~a + b"), &out, transport, "distributed", "", 1, 0, 1, false, "", walOpts{}); err == nil {
			t.Fatalf("unknown transport %q must error", transport)
		}
	}
}
