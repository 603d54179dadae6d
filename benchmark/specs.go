package main

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/arun"
	"repro/internal/engine"
	"repro/internal/spec"
)

// travelSrc is the paper's travel workflow (testdata/travel.wf),
// embedded so the benchmark reads nothing outside its own directory.
const travelSrc = `workflow travel
dep init:  ~s_buy + s_book
dep order: ~c_buy + c_book . c_buy
dep comp:  ~c_book + c_buy + s_cancel
dep only:  ~s_cancel + ~c_buy

event s_buy    site=buy
event c_buy    site=buy
event s_book   site=book   triggerable
event c_book   site=book
event s_cancel site=cancel triggerable rejectable

agent buy site=buy
  step s_buy think=10
  step c_buy think=40 onreject=~c_buy

agent book site=book
  step s_book think=30
  step c_book think=20
`

// denseSrc is the all-pairs precedence workflow over n events spread
// round-robin over sites: n(n-1)/2 dependencies, one agent attempting
// e1..en in order.  dense12 over 3 sites is the engine workloads' spec
// (66 dependencies); dense6 is the heavier of the two served specs.
func denseSrc(n, sites int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workflow dense%d\n", n)
	for i := 2; i <= n; i++ {
		for j := 1; j < i; j++ {
			fmt.Fprintf(&b, "dep ~e%d + e%d . e%d\n", i, j, i)
		}
	}
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "event e%d site=s%d\n", i, (i-1)%sites+1)
	}
	fmt.Fprintf(&b, "agent w site=s1\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "  step e%d think=5\n", i)
	}
	return b.String()
}

// benchSpec is one workflow the benchmark hosts: its source, the plan
// the oracle and the replay run against, and the event order external
// clients announce in (the agents' merge order, with c_book ahead of
// c_buy so no announce parks).
type benchSpec struct {
	name   string
	src    string
	plan   *arun.Plan
	events []algebra.Symbol
}

func newBenchSpec(name, src string, events ...string) (*benchSpec, error) {
	sp, err := spec.ParseString(src)
	if err != nil {
		return nil, fmt.Errorf("spec %s: %w", name, err)
	}
	plan, err := arun.NewPlan(sp, arun.PlanOptions{})
	if err != nil {
		return nil, fmt.Errorf("plan %s: %w", name, err)
	}
	bs := &benchSpec{name: name, src: src, plan: plan}
	for _, e := range events {
		sym, err := algebra.ParseSymbol(e)
		if err != nil {
			return nil, fmt.Errorf("spec %s event %q: %w", name, e, err)
		}
		bs.events = append(bs.events, sym)
	}
	return bs, nil
}

func servedSpecs() ([]*benchSpec, error) {
	travel, err := newBenchSpec("travel", travelSrc, "s_buy", "s_book", "c_book", "c_buy")
	if err != nil {
		return nil, err
	}
	dense6, err := newBenchSpec("dense6", denseSrc(6, 3), "e1", "e2", "e3", "e4", "e5", "e6")
	if err != nil {
		return nil, err
	}
	return []*benchSpec{travel, dense6}, nil
}

func dense12Spec() (*benchSpec, error) {
	return newBenchSpec("dense12", denseSrc(12, 3))
}

// oracleFn gives the fingerprint an instance of a spec at a seed must
// end with.  external selects the externally announced run (the spec's
// events in order, then closeout) over the scripted one.
type oracleFn func(bs *benchSpec, seed int64, external bool) (string, error)

// simOracle runs one instance on the engine's deterministic simulator
// transport, the same construction wfserve and engine ModeSim use, so
// a served or engine instance at seed s must reproduce it exactly.
func simOracle(bs *benchSpec, seed int64, external bool) (string, error) {
	out, err := replayOne(bs, engine.SimTransport(seed), external)
	if err != nil {
		return "", err
	}
	if external && !out.Satisfied {
		return "", fmt.Errorf("oracle: external %s at seed %d is unsatisfied", bs.name, seed)
	}
	return out.Fingerprint(), nil
}
