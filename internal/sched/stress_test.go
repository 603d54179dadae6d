package sched_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/workload"
)

func sym(k string) algebra.Symbol {
	s, err := algebra.ParseSymbol(k)
	if err != nil {
		panic(err)
	}
	return s
}

// TestStressRandomWorkloads drives randomized workflows through all
// three schedulers under varied seeds and latencies, asserting the
// core contract: every run terminates with a valid, maximal trace that
// satisfies every dependency.
func TestStressRandomWorkloads(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	for iter := 0; iter < 12; iter++ {
		nEvents := 4 + r.Intn(5)
		nDeps := 2 + r.Intn(nEvents-1)
		wl := workload.Random(nDeps, nEvents, r.Int63(), 1+r.Intn(4))
		for _, kind := range sched.Kinds() {
			cfg := wl.Config(kind, r.Int63())
			cfg.Latency = simnet.LatencyModel{
				Local:  1 + simnet.Time(r.Intn(10)),
				Remote: 100 + simnet.Time(r.Intn(900)),
				Jitter: simnet.Time(r.Intn(400)),
			}
			rep, err := sched.Run(cfg)
			if err != nil {
				t.Fatalf("iter %d %s %s: %v", iter, wl.Name, kind, err)
			}
			if len(rep.Unresolved) != 0 {
				t.Fatalf("iter %d %s %s: unresolved %v (trace %v)",
					iter, wl.Name, kind, rep.Unresolved, rep.Trace)
			}
			if !rep.Satisfied {
				t.Fatalf("iter %d %s %s: trace %v violates the workflow",
					iter, wl.Name, kind, rep.Trace)
			}
			if !rep.Trace.Valid() || !rep.Trace.MaximalOver(wl.Workflow.Alphabet()) {
				t.Fatalf("iter %d %s %s: bad trace %v", iter, wl.Name, kind, rep.Trace)
			}
			if !rep.Generated {
				t.Fatalf("iter %d %s %s: Definition 4 violated on %v",
					iter, wl.Name, kind, rep.Trace)
			}
		}
	}
}

// TestStressAdversarialSchedules drives a fixed workflow with
// randomized agent schedules that mix events and complements, some of
// which must be rejected; whatever happens, realized traces stay
// legal.
func TestStressAdversarialSchedules(t *testing.T) {
	deps := []string{
		"~a + ~b + a . b",
		"~b + c",
		"~c + ~a + c . a",
	}
	w, err := core.ParseWorkflow(deps...)
	if err != nil {
		t.Fatal(err)
	}
	bases := []string{"a", "b", "c"}
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 25; iter++ {
		var agents []*spec.AgentScript
		perm := r.Perm(len(bases))
		for i, bi := range perm {
			name := bases[bi]
			s := sym(name)
			if r.Intn(3) == 0 {
				s = s.Complement()
			}
			agents = append(agents, &spec.AgentScript{
				ID:   fmt.Sprintf("ag-%d", i),
				Site: simnet.SiteID("s" + name),
				Steps: []spec.Step{
					{Sym: s, Think: simnet.Time(5 + r.Intn(200))},
				},
			})
		}
		for _, kind := range sched.Kinds() {
			rep, err := sched.Run(sched.Config{
				Workflow:  w,
				Kind:      kind,
				Placement: spec.Placement{"a": "sa", "b": "sb", "c": "sc"},
				Agents:    agents,
				Seed:      r.Int63(),
				Closeout:  true,
			})
			if err != nil {
				t.Fatalf("iter %d %s: %v", iter, kind, err)
			}
			if !rep.Satisfied || len(rep.Unresolved) != 0 {
				t.Fatalf("iter %d %s: satisfied=%v unresolved=%v trace=%v",
					iter, kind, rep.Satisfied, rep.Unresolved, rep.Trace)
			}
		}
	}
}

// TestStressConcurrentAttempts floods the distributed scheduler with
// near-simultaneous attempts of every event and its complement; the
// actors must serialize each pair (exactly one polarity occurs) and
// keep the trace legal.
func TestStressConcurrentAttempts(t *testing.T) {
	w, err := core.ParseWorkflow("~a + ~b + a . b", "~b + ~c + b . c")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(99))
	for iter := 0; iter < 15; iter++ {
		var agents []*spec.AgentScript
		for i, name := range []string{"a", "b", "c"} {
			site := simnet.SiteID("s" + name)
			agents = append(agents,
				&spec.AgentScript{ID: fmt.Sprintf("pos-%d", i), Site: site,
					Steps: []spec.Step{{Sym: sym(name), Think: simnet.Time(1 + r.Intn(30))}}},
				&spec.AgentScript{ID: fmt.Sprintf("neg-%d", i), Site: site,
					Steps: []spec.Step{{Sym: sym("~" + name), Think: simnet.Time(1 + r.Intn(30))}}},
			)
		}
		rep, err := sched.Run(sched.Config{
			Workflow:  w,
			Kind:      sched.Distributed,
			Placement: spec.Placement{"a": "sa", "b": "sb", "c": "sc"},
			Agents:    agents,
			Seed:      r.Int63(),
			Closeout:  true,
		})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !rep.Satisfied || len(rep.Unresolved) != 0 {
			t.Fatalf("iter %d: satisfied=%v unresolved=%v trace=%v",
				iter, rep.Satisfied, rep.Unresolved, rep.Trace)
		}
		if !rep.Trace.Valid() {
			t.Fatalf("iter %d: polarity exclusion violated: %v", iter, rep.Trace)
		}
	}
}

// TestStressEliminationParity: with and without consensus elimination,
// randomized runs remain correct.
func TestStressEliminationParity(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for iter := 0; iter < 8; iter++ {
		wl := workload.Random(4, 6, r.Int63(), 3)
		for _, noElim := range []bool{false, true} {
			cfg := wl.Config(sched.Distributed, r.Int63())
			cfg.NoConsensusElimination = noElim
			rep, err := sched.Run(cfg)
			if err != nil {
				t.Fatalf("iter %d noElim=%v: %v", iter, noElim, err)
			}
			if !rep.Satisfied || len(rep.Unresolved) != 0 {
				t.Fatalf("iter %d noElim=%v: satisfied=%v unresolved=%v trace=%v",
					iter, noElim, rep.Satisfied, rep.Unresolved, rep.Trace)
			}
		}
	}
}
