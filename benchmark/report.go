package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// Metric is one named measurement.  N is the sample count behind a
// timing (0 for counts and single observations).
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// BudgetRow is one layer's self time in a workload's latency budget.
type BudgetRow struct {
	Layer string  `json:"layer"`
	US    float64 `json:"us"`
}

// Result is everything one workload run produced.  PerLayer, Budget
// and TraceFile are filled by traced runs only.
type Result struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	// Latency names the workload's own latency ("verdict", "announce" or
	// "round"): the metric BENCHMARK.json's latency_ms_p50 reads.
	Latency   string  `json:"latency"`
	WindowS   float64 `json:"window_s"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Divergent counts mesh instances that ended on an admissible trace
	// other than the oracle's.  Past divergentAllowance they are in Failed
	// too.
	Divergent int  `json:"divergent"`
	Correct   bool `json:"correct"`
	// Valid is false when the open-loop sender ran late (lag p99 above
	// maxGeneratorLagMS): the latencies then include the generator's
	// own delay and must not be compared.
	Valid     bool              `json:"valid"`
	EndToEnd  map[string]Metric `json:"end_to_end"`
	PerLayer  map[string]Metric `json:"per_layer,omitempty"`
	Budget    []BudgetRow       `json:"budget,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
}

// Report is the full-run document: the environment and one result per
// workload.
type Report struct {
	Env       Env       `json:"env"`
	Workloads []*Result `json:"workloads"`
}

// Env records where and how a result was measured.  Two results are
// comparable only at equal GOMAXPROCS.
type Env struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Kernel       string  `json:"kernel"`
	Commit       string  `json:"commit"`
	Seed         int64   `json:"seed"`
	WindowS      float64 `json:"window_s"`
	TraceWindowS float64 `json:"trace_window_s"`
	// FsyncProbeUS is the median of 200 4 KB write+fsync pairs in the
	// directory the WALs are created under.
	FsyncProbeUS float64 `json:"fsync_probe_us"`
}

func readEnv(seed int64, window, traceWindow float64, fsyncUS float64) Env {
	e := Env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: "unknown", Commit: "unknown",
		Seed: seed, WindowS: window, TraceWindowS: traceWindow, FsyncProbeUS: fsyncUS,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// endToEndUnits names the metrics of the driver's result line
// (BENCHMARK.json end_to_end).  latency_ms_p50 exists only there: it is
// the workload's <Result.Latency>_ms_p50.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"latency_ms_p50":  "ms",
	"instances_per_s": "1/s",
}

// perLayerUnits names every per-layer metric (BENCHMARK.json
// per_layer).  Every traced run prints all of them; a layer a workload
// does not touch reads 0, which is itself the isolation check.
var perLayerUnits = map[string]string{
	"serve.http_us":       "us",
	"serve.admit_wait_us": "us",
	"serve.instance_us":   "us",
	"serve.shed":          "count",

	"wal.append_ns":          "ns",
	"wal.wait_durable_us":    "us",
	"wal.wait_durable_us_2":  "us",
	"wal.wait_durable_us_64": "us",
	"wal.syncs_per_instance": "count/instance",
	"wal.records_per_sync":   "count",
	"wal.commit_width":       "count",
	"wal.park_us":            "us",

	"arun.runner_build_us": "us",
	"arun.run_us":          "us",
	"arun.drive_self_us":   "us",

	"actor.handle_us":         "us",
	"actor.msgs_per_instance": "count/instance",
	"actor.attempts":          "count/instance",
	"actor.fires":             "count/instance",
	"actor.announcements":     "count/instance",
	"actor.inquiries":         "count/instance",
	"actor.rejects":           "count/instance",
	"gprog.eval_ns":           "ns",

	"transport.send_ns":        "ns",
	"transport.idle_wait_us":   "us",
	"netwire.frames_per_batch": "count",
	"netwire.retransmits":      "count",

	"engine.instance_us":     "us",
	"engine.instance_us_p99": "us",
	"engine.divergent":       "count",

	"spec.parse_us":      "us",
	"core.compile_ms":    "ms",
	"arun.plan_build_ms": "ms",
	"synth.calls":        "count",
	"synth.cache_hits":   "count",

	"allocs_per_instance": "count/instance",
	"gc_pause_ms":         "ms",
	"heap_mb_end":         "MB",
	"peak_rss_mb":         "MB",

	"trace_overhead_pct": "%",

	// The ungated tails: measured on the traced run's load, listed here
	// because a tail that two runs of one commit disagree on cannot
	// carry a bound (see -selfcheck for the promotion rule).
	"latency_ms_p99":       "ms",
	"generator_lag_ms_p99": "ms",

	"budget.serve_us":     "us",
	"budget.wal_us":       "us",
	"budget.arun_us":      "us",
	"budget.actor_us":     "us",
	"budget.transport_us": "us",
	"budget.other_us":     "us",
	"budget.total_us":     "us",
}
