package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/param"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// Parallelism bounds the guard-synthesis worker pool used by the
// compile-time experiments: 0 selects GOMAXPROCS, 1 compiles
// sequentially.  The wfbench -j flag sets it; the compiled output is
// bit-identical at any setting.
var Parallelism int

// compileOpts returns the experiment-wide compile options.
func compileOpts() core.CompileOptions {
	return core.CompileOptions{Parallelism: Parallelism}
}

// P1 measures guard synthesis (precompilation) cost as the chain
// length grows: wall time, synthesis calls, and total guard size.
func P1() *Table {
	t := &Table{
		ID:     "P1",
		Title:  "guard synthesis cost vs dependency count (chain workloads)",
		Header: []string{"chain length", "deps", "events", "compile time", "synth calls", "guard size"},
	}
	for _, n := range []int{4, 8, 16, 32, 64} {
		wl := workload.Chain(n, 1)
		start := time.Now()
		c, err := core.CompileWith(wl.Workflow, compileOpts())
		if err != nil {
			panic(err)
		}
		el := time.Since(start)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(len(wl.Workflow.Deps)),
			fmt.Sprint(len(wl.Workflow.Alphabet().Bases())),
			el.Round(time.Microsecond).String(),
			fmt.Sprint(c.Stats.Calls), fmt.Sprint(c.TotalGuardSize()),
		})
	}
	t.Notes = append(t.Notes,
		"cost grows linearly in the number of dependencies: precompilation is cheap, as the paper claims")
	return t
}

// P2 compares the distributed scheduler against both centralized
// baselines as the number of independent workflow instances (and hence
// sites) grows.
func P2() *Table {
	t := &Table{
		ID:    "P2",
		Title: "distributed vs centralized as instances/sites grow (travel workload)",
		Header: []string{"instances", "scheduler", "msgs", "remote", "msgs/event",
			"avg latency µs", "max latency µs", "central load"},
	}
	for _, n := range []int{1, 2, 4, 8} {
		wl := workload.Travel(n)
		for _, kind := range sched.Kinds() {
			r, err := sched.Run(wl.Config(kind, 2026))
			if err != nil {
				panic(err)
			}
			if !r.Satisfied || len(r.Unresolved) != 0 {
				panic(fmt.Sprintf("%s/%s: bad run", wl.Name, kind))
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), string(kind),
				fmt.Sprint(r.Stats.Messages), fmt.Sprint(r.Stats.Remote),
				fmt.Sprintf("%.1f", r.MessagesPerEvent()),
				fmt.Sprint(r.AvgLatency()), fmt.Sprint(r.MaxLatency()),
				fmt.Sprint(r.Stats.PerSite[sched.CentralSite]),
			})
		}
	}
	t.Notes = append(t.Notes,
		"every centralized decision crosses the network twice; the central site's load grows with scale",
		"the distributed scheduler exchanges messages only among dependent events and decides locally")
	return t
}

// P3 ablates the Theorem 2/4 decompositions on workflows made of many
// independent dependencies.
func P3() *Table {
	t := &Table{
		ID:    "P3",
		Title: "guard synthesis with vs without Theorem 2/4 decomposition",
		Header: []string{"workload", "deps", "with: time", "with: calls",
			"without: time", "without: calls"},
	}
	for _, n := range []int{2, 4, 8} {
		wl := workload.Travel(n)
		start := time.Now()
		cWith, err := core.Compile(wl.Workflow)
		if err != nil {
			panic(err)
		}
		tWith := time.Since(start)
		start = time.Now()
		cWithout, err := core.CompilePlain(wl.Workflow)
		if err != nil {
			panic(err)
		}
		tWithout := time.Since(start)
		t.Rows = append(t.Rows, []string{
			wl.Name, fmt.Sprint(len(wl.Workflow.Deps)),
			tWith.Round(time.Microsecond).String(), fmt.Sprint(cWith.Stats.Calls),
			tWithout.Round(time.Microsecond).String(), fmt.Sprint(cWithout.Stats.Calls),
		})
	}
	t.Notes = append(t.Notes,
		"per-dependency guards are identical either way (tested); the decomposition only changes the work done")
	return t
}

// runExample13 drives the Example 13 mutual-exclusion manager through
// a number of loop iterations (four token attempts each), optionally
// on the from-scratch evaluation path, and returns the attempt count
// and the attempt-loop wall time.  Shared by P4 and P9.
func runExample13(iters int, scratch bool) (attempts int, el time.Duration) {
	m, err := param.NewManager(
		"b2[?y] . b1[?x] + ~e1[?x] + ~b2[?y] + e1[?x] . b2[?y]",
		"b1[?x] . b2[?y] + ~e2[?y] + ~b1[?x] + e2[?y] . b1[?x]",
	)
	if err != nil {
		panic(err)
	}
	if scratch {
		m.DisableIncremental()
	}
	var c param.Counter
	start := time.Now()
	for i := 0; i < iters; i++ {
		for _, base := range []string{"b1", "e1", "b2", "e2"} {
			if _, err := m.Attempt(c.Next(sym(base))); err != nil {
				panic(err)
			}
			attempts++
		}
	}
	el = time.Since(start)
	if _, ok := m.SatisfiesInstances(); !ok {
		panic("example 13 manager: violation")
	}
	return attempts, el
}

// bestExample13 runs the workload a few times and keeps the fastest
// wall time: the short cells are a few ms of work, where scheduler and
// GC noise would otherwise dominate the table.
func bestExample13(iters int, scratch bool) (attempts int, best time.Duration) {
	for rep := 0; rep < 3; rep++ {
		n, el := runExample13(iters, scratch)
		if rep == 0 || el < best {
			attempts, best = n, el
		}
	}
	return attempts, best
}

// P4 measures parametrized guard evaluation as live instances grow:
// the Example 13 mutual-exclusion manager over many loop iterations.
func P4() *Table {
	t := &Table{
		ID:     "P4",
		Title:  "parametrized scheduling cost vs loop iterations (Example 13 manager)",
		Header: []string{"iterations", "attempts", "time", "µs/attempt"},
	}
	runExample13(2, false) // warm the process-wide canonicalization tables
	for _, iters := range []int{5, 20, 80} {
		attempts, el := bestExample13(iters, false)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(iters), fmt.Sprint(attempts),
			el.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f", float64(el.Microseconds())/float64(attempts)),
		})
	}
	t.Notes = append(t.Notes,
		"the delta-driven evaluator re-evaluates only instances touched by new observations; cost per attempt stays flat as the binding population grows (P9 ablates this)")
	return t
}

// P9 ablates the delta-driven parametrized evaluator against the
// from-scratch universal evaluation on the same workload as P4.
func P9() *Table {
	t := &Table{
		ID:    "P9",
		Title: "incremental vs from-scratch parametrized evaluation (Example 13 manager)",
		Header: []string{"iterations", "attempts", "scratch µs/attempt",
			"incremental µs/attempt", "speedup"},
	}
	runExample13(2, true) // warm the process-wide canonicalization tables
	for _, iters := range []int{5, 20, 80} {
		attempts, elScratch := bestExample13(iters, true)
		_, elInc := bestExample13(iters, false)
		perScratch := float64(elScratch.Microseconds()) / float64(attempts)
		perInc := float64(elInc.Microseconds()) / float64(attempts)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(iters), fmt.Sprint(attempts),
			fmt.Sprintf("%.1f", perScratch), fmt.Sprintf("%.1f", perInc),
			fmt.Sprintf("%.1fx", perScratch/perInc),
		})
	}
	t.Notes = append(t.Notes,
		"both paths realize the same trace and verdicts (property-tested); the scratch path re-enumerates every candidate binding per attempt",
		"discharged (⊤) instances are never revisited, so incremental cost tracks the delta, not the accumulated binding population")
	return t
}

// P5 compares the three schedulers across the whole workload suite.
func P5() *Table {
	t := &Table{
		ID:    "P5",
		Title: "scheduler comparison across the workload suite",
		Header: []string{"workload", "scheduler", "events", "msgs", "remote",
			"avg lat µs", "makespan µs", "peak queue"},
	}
	for _, wl := range workload.Suite() {
		for _, kind := range sched.Kinds() {
			r, err := sched.Run(wl.Config(kind, 7))
			if err != nil {
				panic(err)
			}
			if !r.Satisfied || len(r.Unresolved) != 0 {
				panic(fmt.Sprintf("%s/%s: bad run (trace %v unresolved %v)",
					wl.Name, kind, r.Trace, r.Unresolved))
			}
			t.Rows = append(t.Rows, []string{
				wl.Name, string(kind), fmt.Sprint(len(r.Trace)),
				fmt.Sprint(r.Stats.Messages), fmt.Sprint(r.Stats.Remote),
				fmt.Sprint(r.AvgLatency()), fmt.Sprint(r.Makespan),
				fmt.Sprint(r.Stats.PeakQueue),
			})
		}
	}
	return t
}

// P6 ablates the consensus-elimination optimization: message counts
// and latency with and without the ¬-literal agreement round trips.
func P6() *Table {
	t := &Table{
		ID:     "P6",
		Title:  "ablation: consensus elimination for ¬ literals on/off",
		Header: []string{"workload", "elimination", "msgs", "remote", "avg lat µs", "makespan µs"},
	}
	for _, wl := range []*workload.Workload{
		workload.Chain(8, 4), workload.Fan(8, 4), workload.Travel(3),
	} {
		for _, noElim := range []bool{false, true} {
			cfg := wl.Config(sched.Distributed, 7)
			cfg.NoConsensusElimination = noElim
			r, err := sched.Run(cfg)
			if err != nil {
				panic(err)
			}
			if !r.Satisfied || len(r.Unresolved) != 0 {
				panic(fmt.Sprintf("P6 %s noElim=%v: bad run", wl.Name, noElim))
			}
			mode := "on"
			if noElim {
				mode = "off"
			}
			t.Rows = append(t.Rows, []string{
				wl.Name, mode, fmt.Sprint(r.Stats.Messages), fmt.Sprint(r.Stats.Remote),
				fmt.Sprint(r.AvgLatency()), fmt.Sprint(r.Makespan),
			})
		}
	}
	t.Notes = append(t.Notes,
		"the paper's conclusions: \"certain consensus requirements can be eliminated without loss of correctness\"")
	return t
}

// P7 sweeps the remote-link latency: the distributed scheduler's
// locality advantage grows with the cost of crossing the network,
// while every centralized decision pays the round trip.
func P7() *Table {
	t := &Table{
		ID:    "P7",
		Title: "latency sensitivity: agent-perceived decision latency vs remote-link cost",
		Header: []string{"remote link µs", "scheduler", "avg latency µs", "max latency µs",
			"makespan µs"},
	}
	wl := workload.Travel(4)
	for _, remote := range []simnet.Time{100, 500, 2000, 10000} {
		for _, kind := range sched.Kinds() {
			cfg := wl.Config(kind, 11)
			cfg.Latency = simnet.LatencyModel{Local: 5, Remote: remote, Jitter: remote / 5}
			r, err := sched.Run(cfg)
			if err != nil {
				panic(err)
			}
			if !r.Satisfied || len(r.Unresolved) != 0 {
				panic(fmt.Sprintf("P7 %s@%d: bad run", kind, remote))
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(remote), string(kind),
				fmt.Sprint(r.AvgLatency()), fmt.Sprint(r.MaxLatency()),
				fmt.Sprint(r.Makespan),
			})
		}
	}
	t.Notes = append(t.Notes,
		"centralized latency grows with the link cost on every decision; distributed decisions that stay within a site do not")
	return t
}

// P8 compares sequential and parallel guard synthesis across the
// workload sweep: the compile-time effect of the bounded worker pool,
// with a bit-identity check of the two guard tables.  Speedup tracks
// the machine's core count; on a single-core host the two paths tie.
func P8() *Table {
	t := &Table{
		ID:     "P8",
		Title:  "parallel vs sequential guard synthesis (bounded worker pool)",
		Header: []string{"workload", "events", "seq compile", "par compile", "identical"},
	}
	for _, wl := range []*workload.Workload{
		workload.Chain(32, 1),
		workload.Diamond(8, 1),
		workload.Travel(8),
		workload.Random(24, 32, 7, 1),
	} {
		// Warm the process-wide formula-interning tables first so the
		// seq/par comparison measures the worker pool, not which run
		// canonicalized a subformula first.
		if _, err := core.CompileWith(wl.Workflow, core.CompileOptions{Parallelism: 1}); err != nil {
			panic(err)
		}
		start := time.Now()
		seq, err := core.CompileWith(wl.Workflow, core.CompileOptions{Parallelism: 1})
		if err != nil {
			panic(err)
		}
		tSeq := time.Since(start)
		start = time.Now()
		par, err := core.CompileWith(wl.Workflow, compileOpts())
		if err != nil {
			panic(err)
		}
		tPar := time.Since(start)
		t.Rows = append(t.Rows, []string{
			wl.Name, fmt.Sprint(len(par.Guards)),
			tSeq.Round(time.Microsecond).String(), tPar.Round(time.Microsecond).String(),
			fmt.Sprint(CompiledEqual(seq, par)),
		})
	}
	t.Notes = append(t.Notes,
		"per-event synthesis is independent (Theorems 2/4), so the pool scales with cores while the output stays bit-identical")
	return t
}

// CompiledEqual reports whether two compilations agree exactly:
// same events, guard formulas, per-dependency contributions, watch
// lists, LocalNeg sets, and synthesis statistics.
func CompiledEqual(a, b *core.Compiled) bool {
	if a.Stats != b.Stats || len(a.Guards) != len(b.Guards) {
		return false
	}
	ags, bgs := a.EventGuards(), b.EventGuards()
	for i, ag := range ags {
		bg := bgs[i]
		if !ag.Event.Equal(bg.Event) || !ag.Guard.Equal(bg.Guard) {
			return false
		}
		if len(ag.PerDep) != len(bg.PerDep) || len(ag.Watches) != len(bg.Watches) ||
			len(ag.LocalNeg) != len(bg.LocalNeg) {
			return false
		}
		for d, g := range ag.PerDep {
			if og, ok := bg.PerDep[d]; !ok || !g.Equal(og) {
				return false
			}
		}
		for j, w := range ag.Watches {
			if !w.Equal(bg.Watches[j]) {
				return false
			}
		}
		for k := range ag.LocalNeg {
			if !bg.LocalNeg[k] {
				return false
			}
		}
	}
	return true
}
