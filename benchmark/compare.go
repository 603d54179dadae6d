package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

const (
	// bound is the share of the old value by which a gated metric may get
	// worse (failed_share may not rise at all).  It is as wide as
	// BENCHMARK.json allows because the 2-vCPU box the benchmark was
	// defined on loses up to 30% of a core for seconds at a time; README.md
	// has the measured spreads.
	bound = 0.25
	// tailAgreement is how closely two runs of one commit must agree on
	// a tail before it is gated at all.
	tailAgreement = 0.10
)

// gate returns a metric's bound and direction, and whether it is a tail
// (gated only once two runs of the same code agree on it).  ok is false
// for metrics that are printed but never gated: the generator's lag,
// and an engine round's time, which is the round's size over
// instances_per_s and would gate one number twice.
func gate(name string) (limit float64, higherBetter, tail, ok bool) {
	switch {
	case name == "instances_per_s":
		return bound, true, false, true
	case name == "failed_share":
		return 0, false, false, true
	case name == "generator_lag_ms_p99", strings.HasPrefix(name, "round_ms_"):
		return 0, false, false, false
	case name == "setup_s", strings.HasSuffix(name, "_ms_p50"):
		return bound, false, false, true
	case strings.HasSuffix(name, "_ms_p99"):
		return bound, false, true, true
	}
	return 0, false, false, false
}

// worse is how much worse b is than a, as a share of a (negative when
// b is better); from a zero it is the plain difference.
func worse(a, b float64, higherBetter bool) float64 {
	diff := b - a
	if higherBetter {
		diff = -diff
	}
	if a == 0 {
		return diff
	}
	return diff / a
}

// comparison is one gated metric of one workload across two reports.
type comparison struct {
	Workload, Metric string
	Old, New         float64
	Unit             string
	Worse, Bound     float64
	Ungated, Breach  bool
}

// compareReports lines up every gated end-to-end metric of two reports.
// With symmetric set (two runs of one commit) the difference counts in
// whichever direction is worse, and a tail the runs agree on to within
// tailAgreement is held to the bound like any other gate.  Any other
// tail is reported as ungated with its spread: across two commits there
// is no telling a regression from the tail's own noise.  So is a
// setup_s that two runs of one commit disagree on by more than its
// bound: set-up on the box this was defined on has shown that much
// spread (README.md, Bounds), and that is unresolved, not a regression.
func compareReports(a, b *Report, symmetric bool) ([]comparison, error) {
	if a.Env.GOMAXPROCS != b.Env.GOMAXPROCS {
		return nil, fmt.Errorf("refusing to compare results at GOMAXPROCS %d and %d",
			a.Env.GOMAXPROCS, b.Env.GOMAXPROCS)
	}
	if a.Env.WindowS != b.Env.WindowS {
		return nil, fmt.Errorf("refusing to compare results measured over %v s and %v s windows",
			a.Env.WindowS, b.Env.WindowS)
	}
	byName := map[string]*Result{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	var out []comparison
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		if rb == nil {
			return nil, fmt.Errorf("workload %s is missing from the second report", ra.Workload)
		}
		names := make([]string, 0, len(ra.EndToEnd))
		for name := range ra.EndToEnd {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			limit, higher, tail, ok := gate(name)
			if !ok {
				continue
			}
			ma, mb := ra.EndToEnd[name], rb.EndToEnd[name]
			c := comparison{Workload: ra.Workload, Metric: name, Old: ma.Value, New: mb.Value,
				Unit: ma.Unit, Bound: limit}
			c.Worse = worse(ma.Value, mb.Value, higher)
			if symmetric {
				c.Worse = max(c.Worse, worse(mb.Value, ma.Value, higher))
			}
			switch {
			case tail && (!symmetric || c.Worse > tailAgreement),
				symmetric && name == "setup_s" && c.Worse > limit:
				c.Ungated = true
			default:
				c.Breach = c.Worse > limit
			}
			out = append(out, c)
		}
	}
	return out, nil
}

// printComparison prints every gated metric's difference against its
// bound and returns the exit code: 1 on any breach or invalid run.
func printComparison(a, b *Report, symmetric bool, stdout, stderr io.Writer) int {
	cs, err := compareReports(a, b, symmetric)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tunit\tworse by\tbound\tverdict")
	for _, c := range cs {
		verdict := "ok"
		switch {
		case c.Ungated:
			verdict = "ungated"
		case c.Breach:
			verdict = "BREACH"
			code = 1
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%+.1f%%\t%.0f%%\t%s\n",
			c.Workload, c.Metric, c.Old, c.New, c.Unit, 100*c.Worse, 100*c.Bound, verdict)
	}
	tw.Flush()
	for _, rep := range []*Report{a, b} {
		for _, r := range rep.Workloads {
			if r.Divergent > 0 {
				fmt.Fprintf(stdout, "%s: %d of %d instances ended on an admissible trace other than the oracle's\n",
					r.Workload, r.Divergent, r.Attempted)
			}
		}
		code = max(code, exitCode(rep.Workloads, stderr))
	}
	return code
}

func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	var reps [2]Report
	for i, path := range []string{oldPath, newPath} {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &reps[i])
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return printComparison(&reps[0], &reps[1], false, stdout, stderr)
}
