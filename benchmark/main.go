// Command benchmark is the repository's one end-to-end benchmark: five
// workloads through the served front door and the multi-instance
// engine, gated end-to-end metrics, and a per-layer budget measured
// from outside the program.  README.md in this directory defines every
// metric and workload.
//
//	go run ./benchmark [-seed n]                            every workload, untraced then traced
//	go run ./benchmark -workload w -trace 0|1 [-seed n]     one workload, the form BENCHMARK.json names
//	go run ./benchmark -selfcheck                           the full set twice, compared against the bounds
//	go run ./benchmark -compare old.json,new.json           two saved full reports
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// outDir holds everything a run writes: WAL temp dirs and trace files.
const outDir = "benchmark/out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload and end with the one-line result (default: every workload, full report)")
	seed := fs.Int64("seed", 1, "input seed: arrival times and instance seeds derive from it")
	seconds := fs.Int("seconds", windowSeconds, "measured window per workload, in seconds; the driver passes BENCHMARK.json's run_seconds")
	trace := fs.Int("trace", 0, "with -workload: 1 prints the per-layer metrics of a traced run in place of the end-to-end ones")
	selfcheck := fs.Bool("selfcheck", false, "run the full set twice and compare the two against the bounds")
	compare := fs.String("compare", "", "old.json,new.json: compare two saved full reports against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare != "" {
		oldPath, newPath, ok := strings.Cut(*compare, ",")
		if !ok {
			return fail(fmt.Errorf("-compare wants old.json,new.json"))
		}
		return compareFiles(oldPath, newPath, stdout, stderr)
	}
	if *seconds < 1 {
		return fail(fmt.Errorf("-seconds must be at least 1"))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	cfg := config{
		seed: *seed, window: time.Duration(*seconds) * time.Second,
		outDir: outDir, oracle: simOracle, sz: fullSizes,
	}

	switch {
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		cfg.trace = *trace == 1
		env, err := probeEnv(cfg, cfg.window)
		if err != nil {
			return fail(err)
		}
		res, err := w.measure(cfg)
		if err != nil {
			return fail(err)
		}
		if err := writeJSON(stdout, &Report{Env: env, Workloads: []*Result{res}}, true); err != nil {
			return fail(err)
		}
		if err := writeJSON(stdout, contractLine(res, cfg.trace), false); err != nil {
			return fail(err)
		}
		return exitCode([]*Result{res}, stderr)
	case *selfcheck:
		a, err := fullReport(cfg, stderr)
		if err != nil {
			return fail(err)
		}
		b, err := fullReport(cfg, stderr)
		if err != nil {
			return fail(err)
		}
		return printComparison(a, b, true, stdout, stderr)
	default:
		rep, err := fullReport(cfg, stderr)
		if err != nil {
			return fail(err)
		}
		if err := writeJSON(stdout, rep, true); err != nil {
			return fail(err)
		}
		return exitCode(rep.Workloads, stderr)
	}
}

// exitCode says why a result does not stand and returns 1 if any does
// not: a failed output check, or an open loop whose generator ran late.
func exitCode(results []*Result, stderr io.Writer) int {
	code := 0
	for _, r := range results {
		if !r.Correct {
			fmt.Fprintf(stderr, "benchmark: %s: output check failed (%d of %d, %d divergent)\n", r.Workload, r.Failed, r.Attempted, r.Divergent)
			code = 1
		}
		if !r.Valid {
			fmt.Fprintf(stderr, "benchmark: %s: invalid run, generator lag p99 above %.0f ms\n", r.Workload, maxGeneratorLagMS)
			code = 1
		}
	}
	return code
}

// fullReport runs every workload untraced for the full window, then
// traced for a quarter of it, and merges the traced run's per-layer
// metrics and budget into the untraced result.
func fullReport(cfg config, progress io.Writer) (*Report, error) {
	traceWindow := max(cfg.window/4, time.Second)
	env, err := probeEnv(cfg, traceWindow)
	if err != nil {
		return nil, err
	}
	rep := &Report{Env: env}
	for _, w := range workloads {
		fmt.Fprintf(progress, "benchmark: %s\n", w.name)
		res, err := w.measure(cfg)
		if err != nil {
			return nil, err
		}
		tcfg := cfg
		tcfg.trace, tcfg.window = true, traceWindow
		traced, err := w.measure(tcfg)
		if err != nil {
			return nil, fmt.Errorf("traced: %w", err)
		}
		res.PerLayer, res.Budget, res.TraceFile = traced.PerLayer, traced.Budget, traced.TraceFile
		res.Attempted += traced.Attempted
		res.Failed += traced.Failed
		res.Divergent += traced.Divergent
		res.Correct = res.Correct && traced.Correct
		rep.Workloads = append(rep.Workloads, res)
	}
	return rep, nil
}

// probeEnv records the environment, timing the disk the WALs will sit
// on with 200 write+fsync pairs.
func probeEnv(cfg config, traceWindow time.Duration) (Env, error) {
	dir, err := os.MkdirTemp(cfg.outDir, "fsync-")
	if err != nil {
		return Env{}, err
	}
	defer os.RemoveAll(dir)
	fsyncUS, err := fsyncProbe(dir, 200)
	if err != nil {
		return Env{}, err
	}
	return readEnv(cfg.seed, cfg.window.Seconds(), traceWindow.Seconds(), fsyncUS), nil
}

// contractLine is the one-line result BENCHMARK.json's driver reads:
// every end_to_end metric of an untraced run, every per_layer metric of
// a traced one.  An invalid run is not a correct one to the driver.
func contractLine(res *Result, traced bool) map[string]any {
	metrics := map[string]Metric{}
	if traced {
		for name := range perLayerUnits {
			m := res.PerLayer[name]
			metrics[name] = Metric{Value: m.Value, Unit: m.Unit}
		}
	} else {
		for name := range endToEndUnits {
			m := res.EndToEnd[name]
			if name == "latency_ms_p50" {
				m = res.EndToEnd[res.Latency+"_ms_p50"]
			}
			metrics[name] = Metric{Value: m.Value, Unit: m.Unit}
		}
	}
	return map[string]any{
		"correct": res.Correct && res.Valid, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	}
}

func writeJSON(w io.Writer, v any, indent bool) error {
	enc := json.NewEncoder(w)
	if indent {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(v)
}
