// Benchmarks regenerating the cost side of every experiment in
// EXPERIMENTS.md.  The E*/F* artifacts are correctness tables (see
// cmd/wfbench and internal/bench); these testing.B benchmarks measure
// the computational cost of the machinery behind each of them, plus
// the P1–P6 performance experiments proper.
//
// Run with:
//
//	go test -bench=. -benchmem
package dce

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/param"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/temporal"
	"repro/internal/workload"
)

// BenchmarkE1Satisfaction: trace satisfaction checking (Example 1's
// denotation machinery).
func BenchmarkE1Satisfaction(b *testing.B) {
	d := algebra.MustParse("~e + ~f + e . f")
	u := algebra.T("g", "e", "h", "f")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !u.Satisfies(d) {
			b.Fatal("must satisfy")
		}
	}
}

// BenchmarkF2Residuation: one symbolic residuation step (the
// scheduler-state transition of Figure 2).
func BenchmarkF2Residuation(b *testing.B) {
	d := algebra.CNF(algebra.MustParse("~e + ~f + e . f"))
	e := algebra.Sym("e")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		algebra.Residuate(d, e)
	}
}

// BenchmarkF2Reachable: building a dependency's full state machine
// (what the automata baseline precompiles).
func BenchmarkF2Reachable(b *testing.B) {
	d := algebra.MustParse("~e + ~f + e . f")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		algebra.Reachable(d)
	}
}

// BenchmarkE6CNF: the normalization required before residuation.
func BenchmarkE6CNF(b *testing.B) {
	d := algebra.MustParse("(a + b) . (c | d) . (e + f)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		algebra.CNF(d)
	}
}

// BenchmarkF3Eval: temporal model checking of one formula at one index
// (Figure 3's table cells).
func BenchmarkF3Eval(b *testing.B) {
	u := algebra.T("e", "f", "g")
	n := temporal.Prod(
		temporal.Box(temporal.Atom(algebra.Sym("e"))),
		temporal.Neg(temporal.Atom(algebra.Sym("f"))),
		temporal.Dia(temporal.SeqN(temporal.Atom(algebra.Sym("f")), temporal.Atom(algebra.Sym("g")))),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		temporal.Eval(u, 1, n)
	}
}

// BenchmarkE8Simplify: the guard simplifier on the sums arising in
// Example 9 (consensus + absorption to the paper's closed forms).
func BenchmarkE8Simplify(b *testing.B) {
	f, fb := algebra.Sym("f"), algebra.Sym("f").Complement()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := temporal.Or(
			temporal.And(temporal.Lit(temporal.NotYet(f)), temporal.Lit(temporal.NotYet(fb)), temporal.Lit(temporal.Eventually(fb))),
			temporal.And(temporal.Lit(temporal.NotYet(f)), temporal.Lit(temporal.NotYet(fb)), temporal.Lit(temporal.Eventually(f))),
			temporal.Lit(temporal.Occurred(fb)),
		)
		if !g.Equal(temporal.Lit(temporal.NotYet(f))) {
			b.Fatal("simplifier regressed")
		}
	}
}

// BenchmarkE9GuardSynthesis: G(D,e) for the running dependencies of
// Example 9, uncached (the figure-4 computation).
func BenchmarkE9GuardSynthesis(b *testing.B) {
	d := algebra.MustParse("~e + ~f + e . f")
	e := algebra.Sym("e")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.NewSynthesizer().Guard(d, e)
	}
}

// BenchmarkE14ParamGuard: one universal evaluation of Example 14's
// parametrized guard with live instances.
func BenchmarkE14ParamGuard(b *testing.B) {
	guard := param.NewParamGuard(temporal.Or(
		temporal.Lit(temporal.NotYet(algebra.SymP("f", algebra.Var("y")))),
		temporal.Lit(temporal.Occurred(algebra.SymP("g", algebra.Var("y")))),
	))
	var h param.History
	for i := 0; i < 8; i++ {
		h.Observe(algebra.SymP("f", algebra.Const(fmt.Sprint(i))), int64(2*i+1))
		if i%2 == 0 {
			h.Observe(algebra.SymP("g", algebra.Const(fmt.Sprint(i))), int64(2*i+2))
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		guard.Eval(&h)
	}
}

// BenchmarkP1Compile benchmarks precompilation for growing chains.
func BenchmarkP1Compile(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		wl := workload.Chain(n, 1)
		b.Run(fmt.Sprintf("chain-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Compile(wl.Workflow); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP1Parallel: precompilation with the guard-synthesis worker
// pool versus the sequential path, across the workload sweep.  The
// parallel path scales with GOMAXPROCS while producing bit-identical
// guard tables (see TestCompileParallelEquivalence); run with
// -cpu 1,2,4,8 to see the sweep.
func BenchmarkP1Parallel(b *testing.B) {
	wls := []*workload.Workload{
		workload.Chain(32, 1),
		workload.Diamond(8, 1),
		workload.Travel(8),
		workload.Random(24, 32, 7, 1),
	}
	for _, wl := range wls {
		wl := wl
		b.Run("seq/"+wl.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.CompileWith(wl.Workflow, core.CompileOptions{Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("par/"+wl.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.CompileWith(wl.Workflow, core.CompileOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP2Schedulers: one full travel run per scheduler kind as
// instances grow (messages and latency are reported by wfbench; here
// the CPU cost of the whole simulation).
func BenchmarkP2Schedulers(b *testing.B) {
	for _, n := range []int{1, 4} {
		for _, kind := range sched.Kinds() {
			b.Run(fmt.Sprintf("travel-%d/%s", n, kind), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r := runDistributedOnce(n, kind, int64(i+1))
					if !r.Satisfied {
						b.Fatal("bad run")
					}
				}
			})
		}
	}
}

// BenchmarkP3Decomposition: synthesis with and without the Theorem 2/4
// decompositions.
func BenchmarkP3Decomposition(b *testing.B) {
	wl := workload.Travel(4)
	b.Run("with", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Compile(wl.Workflow); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("without", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.CompilePlain(wl.Workflow); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkP4ParamManager: the Example 13 manager across loop
// iterations.
func BenchmarkP4ParamManager(b *testing.B) {
	for _, iters := range []int{4, 16} {
		b.Run(fmt.Sprintf("iters-%d", iters), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := param.NewManager(
					"b2[?y] . b1[?x] + ~e1[?x] + ~b2[?y] + e1[?x] . b2[?y]",
					"b1[?x] . b2[?y] + ~e2[?y] + ~b1[?x] + e2[?y] . b1[?x]",
				)
				if err != nil {
					b.Fatal(err)
				}
				var c param.Counter
				for j := 0; j < iters; j++ {
					for _, base := range []string{"b1", "e1", "b2", "e2"} {
						if _, err := m.Attempt(c.Next(algebra.Sym(base))); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// BenchmarkP5Suite: one end-to-end run of each suite workload on the
// distributed scheduler.
func BenchmarkP5Suite(b *testing.B) {
	for _, wl := range workload.Suite() {
		wl := wl
		b.Run(wl.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := sched.Run(wl.Config(sched.Distributed, int64(i+1)))
				if err != nil || !r.Satisfied {
					b.Fatalf("bad run: %v", err)
				}
			}
		})
	}
}

// BenchmarkP6Elimination: distributed runs with and without consensus
// elimination.
func BenchmarkP6Elimination(b *testing.B) {
	wl := workload.Fan(8, 4)
	for _, noElim := range []bool{false, true} {
		name := "on"
		if noElim {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := wl.Config(sched.Distributed, int64(i+1))
				cfg.NoConsensusElimination = noElim
				r, err := sched.Run(cfg)
				if err != nil || !r.Satisfied {
					b.Fatalf("bad run: %v", err)
				}
			}
		})
	}
}

// BenchmarkT6Generation: the Definition 4 generation check over a
// maximal universe (Theorem 6's verification kernel).
func BenchmarkT6Generation(b *testing.B) {
	w, err := core.ParseWorkflow("~e + f", "~e + ~f + e . f")
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.Compile(w)
	if err != nil {
		b.Fatal(err)
	}
	mu := algebra.MaximalUniverse(w.Alphabet())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, u := range mu {
			core.GeneratesCompiled(c, u)
		}
	}
}

// BenchmarkKnowledgeReduce: one §4.3 message-assimilation step.
func BenchmarkKnowledgeReduce(b *testing.B) {
	e := algebra.Sym("e")
	guard := temporal.Or(
		temporal.Lit(temporal.Eventually(e.Complement())),
		temporal.Lit(temporal.Occurred(e)),
	)
	var k temporal.Knowledge
	k.Observe(e, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Reduce(guard)
	}
}

// runDistributedOnce executes one travel workload run.
func runDistributedOnce(n int, kind sched.Kind, seed int64) *sched.Report {
	wl := workload.Travel(n)
	cfg := wl.Config(kind, seed)
	cfg.Latency = simnet.LatencyModel{Local: 5, Remote: 500, Jitter: 200}
	r, err := sched.Run(cfg)
	if err != nil {
		panic(err)
	}
	return r
}
