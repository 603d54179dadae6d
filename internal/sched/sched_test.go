package sched

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/spec"
)

func sym(k string) algebra.Symbol {
	s, err := algebra.ParseSymbol(k)
	if err != nil {
		panic(err)
	}
	return s
}

// travelWorkflow is Example 4: book a car alongside a non-refundable
// ticket purchase, with cancel compensating book.
func travelWorkflow(t *testing.T) *core.Workflow {
	t.Helper()
	w, err := core.ParseWorkflow(
		"~s_buy + s_book",
		"~c_buy + c_book . c_buy",
		"~c_book + c_buy + s_cancel",
	)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func travelPlacement() spec.Placement {
	return spec.Placement{
		"s_buy": "site-buy", "c_buy": "site-buy",
		"s_book": "site-book", "c_book": "site-book",
		"s_cancel": "site-cancel",
	}
}

func happyAgents() []*spec.AgentScript {
	return []*spec.AgentScript{
		{ID: "buy", Site: "site-buy", Steps: []spec.Step{
			spec.Step{Sym: sym("s_buy"), Think: 10},
			spec.Step{Sym: sym("c_buy"), Think: 40},
		}},
		{ID: "book", Site: "site-book", Steps: []spec.Step{
			spec.Step{Sym: sym("s_book"), Think: 30},
			spec.Step{Sym: sym("c_book"), Think: 20},
		}},
	}
}

func failureAgents() []*spec.AgentScript {
	return []*spec.AgentScript{
		{ID: "buy", Site: "site-buy", Steps: []spec.Step{
			spec.Step{Sym: sym("s_buy"), Think: 10},
			spec.Step{Sym: sym("~c_buy"), Think: 40}, // buy fails to commit
		}},
		{ID: "book", Site: "site-book", Steps: []spec.Step{
			spec.Step{Sym: sym("s_book"), Think: 30},
			spec.Step{Sym: sym("c_book"), Think: 20},
		}},
	}
}

func runTravel(t *testing.T, kind Kind, agents []*spec.AgentScript) *Report {
	t.Helper()
	r, err := Run(Config{
		Workflow:    travelWorkflow(t),
		Kind:        kind,
		Placement:   travelPlacement(),
		Agents:      agents,
		Seed:        1996,
		Triggerable: []string{"s_book", "s_cancel"},
		Closeout:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTravelHappyPath: on all three schedulers, the committed run
// orders c_book before c_buy and satisfies every dependency.
func TestTravelHappyPath(t *testing.T) {
	for _, kind := range Kinds() {
		r := runTravel(t, kind, happyAgents())
		if len(r.Unresolved) != 0 {
			t.Fatalf("%s: unresolved %v (trace %v)", kind, r.Unresolved, r.Trace)
		}
		if !r.Satisfied {
			t.Fatalf("%s: trace %v violates the workflow", kind, r.Trace)
		}
		iBook, iBuy := r.Trace.Index(sym("c_book")), r.Trace.Index(sym("c_buy"))
		if iBuy < 0 {
			t.Fatalf("%s: c_buy must occur, trace %v", kind, r.Trace)
		}
		if iBook < 0 || iBook > iBuy {
			t.Fatalf("%s: c_book must precede c_buy, trace %v", kind, r.Trace)
		}
		if !r.Trace.Contains(sym("s_book")) {
			t.Fatalf("%s: s_book must occur once s_buy did, trace %v", kind, r.Trace)
		}
	}
}

// TestTravelCompensation: when buy fails to commit, cancel compensates
// book — the scheduler triggers s_cancel.
func TestTravelCompensation(t *testing.T) {
	for _, kind := range Kinds() {
		r := runTravel(t, kind, failureAgents())
		if len(r.Unresolved) != 0 {
			t.Fatalf("%s: unresolved %v (trace %v)", kind, r.Unresolved, r.Trace)
		}
		if !r.Satisfied {
			t.Fatalf("%s: trace %v violates the workflow", kind, r.Trace)
		}
		if !r.Trace.Contains(sym("s_cancel")) {
			t.Fatalf("%s: s_cancel must be triggered, trace %v", kind, r.Trace)
		}
		if !r.Trace.Contains(sym("~c_buy")) {
			t.Fatalf("%s: ~c_buy must occur, trace %v", kind, r.Trace)
		}
	}
}

// TestMaximalTraces: closeout produces maximal traces over the
// workflow alphabet.
func TestMaximalTraces(t *testing.T) {
	for _, kind := range Kinds() {
		w := travelWorkflow(t)
		r := runTravel(t, kind, happyAgents())
		if !r.Trace.MaximalOver(w.Alphabet()) {
			t.Fatalf("%s: trace %v not maximal", kind, r.Trace)
		}
		if !r.Trace.Valid() {
			t.Fatalf("%s: invalid trace %v", kind, r.Trace)
		}
	}
}

// TestDistributedLocalizesMessages: with events spread across sites,
// the centralized schedulers send every attempt remotely while the
// distributed one decides most events where they arise.
func TestDistributedLocalizesMessages(t *testing.T) {
	reports := map[Kind]*Report{}
	for _, kind := range Kinds() {
		reports[kind] = runTravel(t, kind, happyAgents())
	}
	d := reports[Distributed]
	c := reports[CentralResiduation]
	if c.Stats.PerSite[CentralSite] == 0 {
		t.Fatal("centralized run must funnel messages through the central site")
	}
	if d.Stats.PerSite[CentralSite] != 0 {
		t.Fatal("distributed run must have no central site")
	}
}

// TestCentralSchedulersAgree: the residuation and automata baselines
// implement identical decision rules, so with identical seeds their
// traces match exactly.
func TestCentralSchedulersAgree(t *testing.T) {
	for _, agents := range [][]*spec.AgentScript{happyAgents(), failureAgents()} {
		a := runTravel(t, CentralResiduation, agents)
		b := runTravel(t, CentralAutomata, agents)
		if a.Trace.String() != b.Trace.String() {
			t.Fatalf("central traces differ: %v vs %v", a.Trace, b.Trace)
		}
	}
}

// TestKleinPrimitivesEndToEnd: D_< and D_→ running end-to-end on the
// distributed scheduler across attempt orders always realize legal
// traces.
func TestKleinPrimitivesEndToEnd(t *testing.T) {
	w, err := core.ParseWorkflow("~e + ~f + e . f", "~e + f")
	if err != nil {
		t.Fatal(err)
	}
	schedules := [][]spec.Step{
		{spec.Step{Sym: sym("e"), Think: 10}, spec.Step{Sym: sym("f"), Think: 10}},
		{spec.Step{Sym: sym("f"), Think: 10}, spec.Step{Sym: sym("e"), Think: 10}},
		{spec.Step{Sym: sym("~e"), Think: 10}, spec.Step{Sym: sym("f"), Think: 10}},
		{spec.Step{Sym: sym("e"), Think: 10}, spec.Step{Sym: sym("~f"), Think: 10}},
	}
	for i, steps := range schedules {
		r, err := Run(Config{
			Workflow: w,
			Kind:     Distributed,
			Placement: spec.Placement{
				"e": "se", "f": "sf",
			},
			Agents:   []*spec.AgentScript{{ID: "drv", Site: "se", Steps: steps}},
			Seed:     int64(i + 1),
			Closeout: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Unresolved) != 0 {
			t.Fatalf("schedule %d: unresolved %v, trace %v", i, r.Unresolved, r.Trace)
		}
		if !r.Satisfied {
			t.Fatalf("schedule %d: trace %v violates the workflow", i, r.Trace)
		}
	}
}

// TestAgentRejectBranch: a rejected step diverts the agent to its
// OnReject continuation.
func TestAgentRejectBranch(t *testing.T) {
	w, err := core.ParseWorkflow("~e + ~f + e . f")
	if err != nil {
		t.Fatal(err)
	}
	// Occur ē; then attempt e (rejected), falling back to attempting f.
	agents := []*spec.AgentScript{{ID: "a", Site: "s0", Steps: []spec.Step{
		spec.Step{Sym: sym("~e"), Think: 5},
		{Sym: sym("e"), Think: 5, OnReject: []spec.Step{spec.Step{Sym: sym("f"), Think: 5}}},
	}}}
	r, err := Run(Config{Workflow: w, Kind: Distributed, Agents: agents, Seed: 3, Closeout: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Trace.Contains(sym("f")) {
		t.Fatalf("reject branch must attempt f, trace %v", r.Trace)
	}
	if !r.Satisfied {
		t.Fatalf("trace %v violates D_<", r.Trace)
	}
}

// TestExample11EndToEnd: the mutual ◇ guards of Example 11 resolve on
// the full scheduler stack.
func TestExample11EndToEnd(t *testing.T) {
	w, err := core.ParseWorkflow("~e + f", "~f + e")
	if err != nil {
		t.Fatal(err)
	}
	agents := []*spec.AgentScript{
		{ID: "ae", Site: "se", Steps: []spec.Step{spec.Step{Sym: sym("e"), Think: 10}}},
		{ID: "af", Site: "sf", Steps: []spec.Step{spec.Step{Sym: sym("f"), Think: 12}}},
	}
	r, err := Run(Config{
		Workflow:  w,
		Kind:      Distributed,
		Placement: spec.Placement{"e": "se", "f": "sf"},
		Agents:    agents,
		Seed:      11,
		Closeout:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Trace.Contains(sym("e")) || !r.Trace.Contains(sym("f")) {
		t.Fatalf("both e and f must occur, trace %v", r.Trace)
	}
	if !r.Satisfied {
		t.Fatalf("trace %v violates the workflow", r.Trace)
	}
}

// TestReportMetrics: latency and message metrics are populated.
func TestReportMetrics(t *testing.T) {
	r := runTravel(t, Distributed, happyAgents())
	if r.Stats.Messages == 0 {
		t.Fatal("messages must be counted")
	}
	if r.Makespan == 0 {
		t.Fatal("makespan must be recorded")
	}
	if r.MessagesPerEvent() <= 0 {
		t.Fatal("messages per event must be positive")
	}
	if r.MaxLatency() < r.AvgLatency() {
		t.Fatal("max latency must dominate the average")
	}
}

// TestRunValidation: bad configurations are reported as errors.
func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("missing workflow must error")
	}
	w, _ := core.ParseWorkflow("~e + f")
	if _, err := Run(Config{Workflow: w, Kind: "warp-drive"}); err == nil {
		t.Fatal("unknown kind must error")
	}
	if _, err := Run(Config{Workflow: w, Agents: []*spec.AgentScript{{ID: "x"}}}); err == nil {
		t.Fatal("agent without site must error")
	}
}

// TestDeterministicRuns: identical configs yield identical traces and
// stats.
func TestDeterministicRuns(t *testing.T) {
	a := runTravel(t, Distributed, happyAgents())
	b := runTravel(t, Distributed, happyAgents())
	if a.Trace.String() != b.Trace.String() {
		t.Fatalf("traces differ: %v vs %v", a.Trace, b.Trace)
	}
	if a.Stats.Messages != b.Stats.Messages {
		t.Fatalf("message counts differ: %d vs %d", a.Stats.Messages, b.Stats.Messages)
	}
}

// TestPlacementSpread: round-robin placement uses the requested number
// of sites.
func TestPlacementSpread(t *testing.T) {
	w, _ := core.ParseWorkflow("~a + b", "~c + d")
	pl := RoundRobinPlacement(w, 2)
	sites := map[simnet.SiteID]bool{}
	for _, s := range pl {
		sites[s] = true
	}
	if len(sites) != 2 {
		t.Fatalf("expected 2 sites, got %v", pl)
	}
	if RoundRobinPlacement(w, 0).SiteFor(sym("a")) == "" {
		t.Fatal("degenerate site count must still place")
	}
}

// TestConsensusEliminationSound: with and without the elimination,
// every workload of the suite realizes legal maximal traces; the
// optimized runs never use more messages.
func TestConsensusEliminationSound(t *testing.T) {
	w, err := core.ParseWorkflow("~e + ~f + e . f", "~f + ~g + f . g")
	if err != nil {
		t.Fatal(err)
	}
	for _, noElim := range []bool{false, true} {
		r, err := Run(Config{
			Workflow:               w,
			Kind:                   Distributed,
			Placement:              spec.Placement{"e": "s1", "f": "s2", "g": "s3"},
			NoConsensusElimination: noElim,
			Agents: []*spec.AgentScript{
				{ID: "a", Site: "s1", Steps: []spec.Step{spec.Step{Sym: sym("e"), Think: 10}}},
				{ID: "b", Site: "s2", Steps: []spec.Step{spec.Step{Sym: sym("f"), Think: 20}}},
				{ID: "c", Site: "s3", Steps: []spec.Step{spec.Step{Sym: sym("g"), Think: 30}}},
			},
			Seed:     5,
			Closeout: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Satisfied || len(r.Unresolved) != 0 {
			t.Fatalf("noElim=%v: satisfied=%v unresolved=%v trace=%v",
				noElim, r.Satisfied, r.Unresolved, r.Trace)
		}
	}
}

// TestLocalNegCompiled: the compiler marks D_<'s ¬f literal on e as
// locally decidable (f's guard always mentions e).
func TestLocalNegCompiled(t *testing.T) {
	w, _ := core.ParseWorkflow("~e + ~f + e . f")
	c, err := core.Compile(w)
	if err != nil {
		t.Fatal(err)
	}
	eg := c.Guards["e"]
	if eg == nil || !eg.LocalNeg["f"] {
		t.Fatalf("¬f on e must be locally decidable, got %v", eg.LocalNeg)
	}
	// An unconstrained f (⊤ guard) must require consensus.
	w2, _ := core.ParseWorkflow("~e + ~f + e . f", "f + ~f + g")
	_ = w2
}

// TestStrengthenedTravel uses the spec strengthening the paper
// discusses at the end of Example 4 (cancel only if buy never
// commits), which creates a three-way conditional cycle
// (c_book needs ◇c_buy, c_buy needs ◇~s_cancel, ~s_cancel needs
// ◇c_buy) that only chained conditional promises can unwind.
func TestStrengthenedTravel(t *testing.T) {
	w, err := core.ParseWorkflow(
		"~s_buy + s_book",
		"~c_buy + c_book . c_buy",
		"~c_book + c_buy + s_cancel",
		"~s_cancel + ~c_buy",
	)
	if err != nil {
		t.Fatal(err)
	}
	run := func(second spec.Step) *Report {
		r, err := Run(Config{
			Workflow:  w,
			Kind:      Distributed,
			Placement: travelPlacement(),
			Agents: []*spec.AgentScript{
				{ID: "buy", Site: "site-buy", Steps: []spec.Step{spec.Step{Sym: sym("s_buy"), Think: 10}, second}},
				{ID: "book", Site: "site-book", Steps: []spec.Step{spec.Step{Sym: sym("s_book"), Think: 30}, spec.Step{Sym: sym("c_book"), Think: 20}}},
			},
			Seed:        1996,
			Triggerable: []string{"s_book", "s_cancel", "~s_cancel"},
			Closeout:    true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Committed: the cycle unwinds, everything commits, no cancel.
	r := run(spec.Step{Sym: sym("c_buy"), Think: 40})
	if !r.Satisfied || len(r.Unresolved) != 0 {
		t.Fatalf("committed: satisfied=%v unresolved=%v trace=%v", r.Satisfied, r.Unresolved, r.Trace)
	}
	for _, want := range []string{"c_book", "c_buy", "~s_cancel"} {
		if !r.Trace.Contains(sym(want)) {
			t.Fatalf("committed: %s must occur, trace %v", want, r.Trace)
		}
	}
	iBook, iBuy := r.Trace.Index(sym("c_book")), r.Trace.Index(sym("c_buy"))
	if iBook > iBuy {
		t.Fatalf("committed: c_book must precede c_buy, trace %v", r.Trace)
	}

	// Compensated: buy never commits, cancel is triggered, book still
	// commits (covered by the cancel).
	r = run(spec.Step{Sym: sym("~c_buy"), Think: 40})
	if !r.Satisfied || len(r.Unresolved) != 0 {
		t.Fatalf("compensated: satisfied=%v unresolved=%v trace=%v", r.Satisfied, r.Unresolved, r.Trace)
	}
	if !r.Trace.Contains(sym("s_cancel")) {
		t.Fatalf("compensated: s_cancel must occur, trace %v", r.Trace)
	}
}

// TestPromiseChainTriple: a minimal three-actor promise cycle —
// a needs ◇b, b needs ◇c, c needs ◇a — commits atomically once all
// three are attempted.
func TestPromiseChainTriple(t *testing.T) {
	w, err := core.ParseWorkflow("~a + b", "~b + c", "~c + a")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(Config{
		Workflow:  w,
		Kind:      Distributed,
		Placement: spec.Placement{"a": "sa", "b": "sb", "c": "sc"},
		Agents: []*spec.AgentScript{
			{ID: "aa", Site: "sa", Steps: []spec.Step{spec.Step{Sym: sym("a"), Think: 10}}},
			{ID: "ab", Site: "sb", Steps: []spec.Step{spec.Step{Sym: sym("b"), Think: 20}}},
			{ID: "ac", Site: "sc", Steps: []spec.Step{spec.Step{Sym: sym("c"), Think: 30}}},
		},
		Seed:     13,
		Closeout: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a", "b", "c"} {
		if !r.Trace.Contains(sym(want)) {
			t.Fatalf("all of a,b,c must occur, trace %v", r.Trace)
		}
	}
	if !r.Satisfied {
		t.Fatalf("trace %v violates the workflow", r.Trace)
	}
}

// RoundRobinPlacement spreads the workflow's events over n sites in
// alphabetical order.
func RoundRobinPlacement(w *core.Workflow, n int) spec.Placement {
	if n < 1 {
		n = 1
	}
	pl := spec.Placement{}
	for i, b := range w.Alphabet().Bases() {
		pl[b.Key()] = simnet.SiteID(fmt.Sprintf("s%d", i%n))
	}
	return pl
}
