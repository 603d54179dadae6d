package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/arun"
	"repro/internal/engine"
	"repro/internal/netwire"
	"repro/internal/obs"
)

// toySizes shrinks every fixed amount of work so all five workloads run
// traced in a few seconds.
var toySizes = sizes{
	rate: 500, warm: 20,
	simRound: 40, netRound: 20, walRound: 5, minRounds: 2,
	setupReps: 1, replay: 4, netReplay: 2, probes: 3,
}

func toyConfig(t *testing.T) config {
	return config{
		seed: 7, window: 250 * time.Millisecond, trace: true,
		outDir: t.TempDir(), oracle: simOracle, sz: toySizes,
	}
}

// manifest is the part of BENCHMARK.json the tests hold the code to.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWorkloadsToy runs every workload traced at toy size and checks
// that the result carries every metric the issue and BENCHMARK.json
// name, each with a unit, that the budget adds up, and that the layers
// a workload does not touch read zero.
func TestWorkloadsToy(t *testing.T) {
	mf := readManifest(t)
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(mf.Workloads), len(workloads))
	}
	if mf.RunSeconds != windowSeconds {
		t.Errorf("BENCHMARK.json run_seconds is %d, the benchmark's window is %d", mf.RunSeconds, windowSeconds)
	}
	engineOwn := []string{"round_ms_p50", "round_ms_p99", "instances_per_s_q1", "instances_per_s_q3"}
	own := map[string][]string{
		"serve-launch-open":      {"admit_ms_p50", "admit_ms_p99", "verdict_ms_p50", "verdict_ms_p99", "generator_lag_ms_p99"},
		"serve-external-closed":  {"announce_ms_p50", "announce_ms_p99"},
		"engine-sim-dense12":     engineOwn,
		"engine-net-dense12":     engineOwn,
		"engine-net-dense12-wal": engineOwn,
	}
	for i, w := range workloads {
		if mf.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, want %q", i, mf.Workloads[i].Name, w.name)
		}
		res, err := w.measure(toyConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.name, res.Correct, res.Failed, res.Attempted)
		}
		names := append([]string{"setup_s", "instances_per_s", "failed_share"}, own[w.name]...)
		for _, name := range names {
			if m, ok := res.EndToEnd[name]; !ok || m.Unit == "" {
				t.Errorf("%s: end-to-end metric %s missing or without unit", w.name, name)
			}
		}
		if len(res.EndToEnd) != len(names) {
			t.Errorf("%s: %d end-to-end metrics, want the %d named: one name per number", w.name, len(res.EndToEnd), len(names))
		}
		untraced := contractLine(res, false)["metrics"].(map[string]Metric)
		if len(untraced) != len(mf.EndToEnd) {
			t.Errorf("%s: untraced result line carries %d metrics, BENCHMARK.json lists %d", w.name, len(untraced), len(mf.EndToEnd))
		}
		for _, m := range mf.EndToEnd {
			if got := untraced[m.Name]; got.Unit != m.Unit || got.Value == 0 {
				t.Errorf("%s: result line %s = %v %q, BENCHMARK.json says a non-zero number of %q", w.name, m.Name, got.Value, got.Unit, m.Unit)
			}
		}
		if len(mf.PerLayer) != len(perLayerUnits) {
			t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark has %d", len(mf.PerLayer), len(perLayerUnits))
		}
		for _, m := range mf.PerLayer {
			got, ok := res.PerLayer[m.Name]
			if !ok || got.Unit == "" || got.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s: got unit %q, BENCHMARK.json says %q", w.name, m.Name, got.Unit, m.Unit)
			}
		}
		line := contractLine(res, true)
		if got := len(line["metrics"].(map[string]Metric)); got != len(perLayerUnits) {
			t.Errorf("%s: traced result line carries %d metrics, want %d", w.name, got, len(perLayerUnits))
		}

		var sum float64
		for _, row := range res.Budget {
			sum += row.US
		}
		total := res.PerLayer["budget.total_us"].Value
		if res.Budget[len(res.Budget)-1].Layer != "other" || math.Abs(sum-total) > 1e-6*total {
			t.Errorf("%s: budget rows sum to %v, total is %v", w.name, sum, total)
		}
		if _, err := os.Stat(res.TraceFile); err != nil {
			t.Errorf("%s: trace file: %v", w.name, err)
		}

		zero := func(name string) {
			if v := res.PerLayer[name].Value; v != 0 {
				t.Errorf("%s: %s = %v, predicted 0", w.name, name, v)
			}
		}
		if w.name == "engine-sim-dense12" || w.name == "engine-net-dense12" {
			zero("wal.syncs_per_instance")
		}
		if !strings.HasPrefix(w.name, "engine-net") {
			zero("netwire.frames_per_batch")
			zero("netwire.retransmits")
		}
	}
}

// TestPlantedOracle plants one wrong oracle fingerprint and expects the
// output check to count it.
func TestPlantedOracle(t *testing.T) {
	for _, name := range []string{"serve-launch-open", "serve-external-closed", "engine-sim-dense12"} {
		cfg := toyConfig(t)
		cfg.trace = false
		planted := false
		cfg.oracle = func(bs *benchSpec, seed int64, external bool) (string, error) {
			fp, err := simOracle(bs, seed, external)
			if !planted {
				planted = true
				fp += " planted"
			}
			return fp, err
		}
		res, err := findWorkload(name).measure(cfg)
		if name == "engine-sim-dense12" {
			// Every seed of a confluent spec shares one fingerprint, so a
			// single wrong one shows as an oracle that disagrees with itself.
			if err == nil || !strings.Contains(err.Error(), "not confluent") {
				t.Errorf("%s: planted fingerprint went unnoticed (err %v)", name, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed != 1 || res.EndToEnd["failed_share"].Value == 0 {
			t.Errorf("%s: planted fingerprint: correct=%v failed=%d", name, res.Correct, res.Failed)
		}
	}
}

// TestDivergentAllowance checks the mesh relaxation of the engine
// output check: a complete, satisfied instance on another trace is
// tolerated only on a mesh and only up to the allowance, and never stays
// in the round's rate.
func TestDivergentAllowance(t *testing.T) {
	bs, err := dense12Spec()
	if err != nil {
		t.Fatal(err)
	}
	want, err := simOracle(bs, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	other := "another trace unresolved{} satisfied=true"
	cfg := toyConfig(t)
	for _, tc := range []struct {
		mesh              bool
		n                 int
		failed, divergent int
	}{
		{true, 2, 0, 2},
		{true, 3, 3, 3},
		{false, 1, 1, 0},
	} {
		rounds := []round{{seed: 1, perS: 100, fingerprints: map[string]int{want: 20 - tc.n, other: tc.n}}}
		failed, divergent, err := checkRounds(cfg, bs, tc.mesh, 20, rounds)
		if err != nil {
			t.Fatal(err)
		}
		if failed != tc.failed || divergent != tc.divergent {
			t.Errorf("mesh=%v, %d off the oracle: failed=%d divergent=%d, want %d and %d", tc.mesh, tc.n, failed, divergent, tc.failed, tc.divergent)
		}
		if got, want := rounds[0].perS, 100*float64(20-tc.n)/20; got != want {
			t.Errorf("mesh=%v, %d off the oracle: round rate %v, want %v", tc.mesh, tc.n, got, want)
		}
	}
}

// TestTracingTransportForwards checks the wrapper changes nothing: the
// same instances end on the same fingerprints and exchange the same
// messages with and without it, on the simulator and on a mesh.
func TestTracingTransportForwards(t *testing.T) {
	specs, err := servedSpecs()
	if err != nil {
		t.Fatal(err)
	}
	dense, err := dense12Spec()
	if err != nil {
		t.Fatal(err)
	}
	sim := func(seed int64) (arun.Transport, error) { return engine.SimTransport(seed), nil }
	mesh := func(int64) (arun.Transport, error) {
		return netwire.NewMesh(arun.DefaultDriver, dense.plan.Sites(), nil)
	}
	cases := []struct {
		name string
		in   replayInput
		mk   transportFn
	}{
		{"travel scripted", replayInput{bs: specs[0], seed: 11}, sim},
		{"dense6 external", replayInput{bs: specs[1], seed: 12, external: true}, sim},
		{"dense12 scripted", replayInput{bs: dense, seed: 13}, sim},
		{"dense12 mesh", replayInput{bs: dense, seed: 14}, mesh},
	}
	counters := []string{"actor.attempts", "actor.fires", "actor.announcements", "actor.inquiries", "actor.rejects"}
	for _, tc := range cases {
		run := func(wrap bool) (string, int, int, map[string]int64, int) {
			tr, err := tc.mk(tc.in.seed)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			tracer := newTracer()
			if wrap {
				tr = &tracedTransport{Transport: tr, t: tracer}
			}
			before := obs.Default.Snapshot()
			out, err := replayStaged(tc.in, tr, func(name string, _ int, f func()) { tracer.driver(name, 0, f) })
			if err != nil {
				t.Fatal(err)
			}
			diff := obs.Default.Snapshot().Diff(before)
			counts := map[string]int64{}
			for _, c := range counters {
				counts[c] = int64(counter(diff, c))
			}
			handled := 0
			for _, it := range tracer.perInstance() {
				handled += it.handled
			}
			return out.Fingerprint(), out.Announcements, out.Decisions, counts, handled
		}
		fp0, ann0, dec0, counts0, _ := run(false)
		fp1, ann1, dec1, counts1, handled := run(true)
		if fp0 != fp1 {
			t.Errorf("%s: fingerprint %q with the wrapper, %q without", tc.name, fp1, fp0)
		}
		if ann0 != ann1 || dec0 != dec1 {
			t.Errorf("%s: announcements/decisions %d/%d with the wrapper, %d/%d without", tc.name, ann1, dec1, ann0, dec0)
		}
		for _, c := range counters {
			if counts0[c] != counts1[c] {
				t.Errorf("%s: %s = %d with the wrapper, %d without", tc.name, c, counts1[c], counts0[c])
			}
		}
		if handled == 0 {
			t.Errorf("%s: the wrapper saw no handler call", tc.name)
		}
	}
}

// TestCompare checks the comparison rules: results at different
// GOMAXPROCS are refused, a breach is flagged, and a tail is gated only
// when two runs of one commit agree on it.
func TestCompare(t *testing.T) {
	report := func(procs int, p50, p99 float64) *Report {
		return &Report{Env: Env{GOMAXPROCS: procs, WindowS: windowSeconds}, Workloads: []*Result{{
			Workload: "w", Valid: true, Correct: true,
			EndToEnd: map[string]Metric{
				"setup_s":        {Value: p50, Unit: "s"},
				"verdict_ms_p50": {Value: p50, Unit: "ms"},
				"verdict_ms_p99": {Value: p99, Unit: "ms"},
				"round_ms_p50":   {Value: p50, Unit: "ms"},
			},
		}}}
	}
	if _, err := compareReports(report(1, 1, 1), report(2, 1, 1), true); err == nil {
		t.Error("compared results at different GOMAXPROCS")
	}
	short := report(2, 1, 1)
	short.Env.WindowS = 5
	if _, err := compareReports(report(2, 1, 1), short, false); err == nil {
		t.Error("compared results measured over different windows")
	}
	find := func(cs []comparison, metric string) comparison {
		for _, c := range cs {
			if c.Metric == metric {
				return c
			}
		}
		t.Fatalf("no comparison for %s", metric)
		return comparison{}
	}
	cs, err := compareReports(report(2, 1.0, 10), report(2, 1.3, 12), true)
	if err != nil {
		t.Fatal(err)
	}
	if c := find(cs, "verdict_ms_p50"); !c.Breach {
		t.Errorf("a 30%% worse median passed a 25%% bound: %+v", c)
	}
	if c := find(cs, "verdict_ms_p99"); !c.Ungated || c.Breach {
		t.Errorf("a tail the runs disagree on by 20%% must be ungated: %+v", c)
	}
	if c := find(cs, "setup_s"); !c.Ungated || c.Breach {
		t.Errorf("a set-up time two runs of one commit disagree on by 30%% is unresolved, not a breach: %+v", c)
	}
	for _, c := range cs {
		if c.Metric == "round_ms_p50" {
			t.Errorf("round_ms_p50 repeats instances_per_s and must not be gated: %+v", c)
		}
	}
	cs, err = compareReports(report(2, 1.0, 10), report(2, 1.3, 12), false)
	if err != nil {
		t.Fatal(err)
	}
	if c := find(cs, "setup_s"); !c.Breach {
		t.Errorf("a 30%% worse set-up across two commits passed a 25%% bound: %+v", c)
	}
	cs, err = compareReports(report(2, 1.0, 10), report(2, 1.05, 10.5), true)
	if err != nil {
		t.Fatal(err)
	}
	if c := find(cs, "verdict_ms_p99"); c.Ungated || c.Breach {
		t.Errorf("a tail the runs agree on within 10%% must be gated and pass: %+v", c)
	}
}
