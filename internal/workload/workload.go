// Package workload generates the benchmark workloads: parametrized
// families of workflows, agent scripts, and placements that the P1–P5
// experiments sweep over.  Every generator is deterministic given its
// arguments.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/spec"
)

// Workload bundles everything a scheduler run needs.
type Workload struct {
	Name        string
	Workflow    *core.Workflow
	Agents      []*spec.AgentScript
	Placement   spec.Placement
	Triggerable []string
}

// Config returns a run configuration for the workload.
func (w *Workload) Config(kind sched.Kind, seed int64) sched.Config {
	return sched.Config{
		Workflow:    w.Workflow,
		Kind:        kind,
		Placement:   w.Placement,
		Agents:      w.Agents,
		Seed:        seed,
		Triggerable: w.Triggerable,
		Closeout:    true,
	}
}

// event returns the symbol e<i>.
func event(i int) algebra.Symbol { return algebra.Sym(fmt.Sprintf("e%03d", i)) }

// spread assigns events round-robin over sites and builds one agent
// per event attempting it at the given think time.
func spread(name string, w *core.Workflow, sites int, think func(i int) simnet.Time) *Workload {
	wl := &Workload{Name: name, Workflow: w, Placement: spec.Placement{}}
	bases := w.Alphabet().Bases()
	for i, b := range bases {
		site := simnet.SiteID(fmt.Sprintf("s%d", i%max(1, sites)))
		wl.Placement[b.Key()] = site
		wl.Agents = append(wl.Agents, &spec.AgentScript{
			ID:    "agent-" + b.Key(),
			Site:  site,
			Steps: []spec.Step{{Sym: b, Think: think(i)}},
		})
	}
	return wl
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Chain builds e1 < e2 < … < en with attempts arriving in order: the
// steady pipeline case.
func Chain(n, sites int) *Workload {
	w := &core.Workflow{}
	for i := 0; i < n-1; i++ {
		w.Deps = append(w.Deps, dep.Before(event(i), event(i+1)))
	}
	return spread(fmt.Sprintf("chain-%d", n), w, sites,
		func(i int) simnet.Time { return simnet.Time(10 + 100*i) })
}

// ReverseChain is Chain with attempts arriving in reverse order — the
// maximal-parking case.
func ReverseChain(n, sites int) *Workload {
	w := &core.Workflow{}
	for i := 0; i < n-1; i++ {
		w.Deps = append(w.Deps, dep.Before(event(i), event(i+1)))
	}
	return spread(fmt.Sprintf("revchain-%d", n), w, sites,
		func(i int) simnet.Time { return simnet.Time(10 + 100*(n-1-i)) })
}

// Fan builds hub → spoke_i for n spokes: one announcement fans out to
// n waiting events.
func Fan(n, sites int) *Workload {
	w := &core.Workflow{}
	hub := algebra.Sym("hub")
	for i := 0; i < n; i++ {
		w.Deps = append(w.Deps, dep.Before(hub, event(i)))
	}
	wl := spread(fmt.Sprintf("fan-%d", n), w, sites,
		func(i int) simnet.Time { return simnet.Time(10 + 10*i) })
	return wl
}

// Diamond builds start < m_i and m_i < join for the given width: a
// fork-join.
func Diamond(width, sites int) *Workload {
	w := &core.Workflow{}
	start, join := algebra.Sym("a_start"), algebra.Sym("z_join")
	for i := 0; i < width; i++ {
		w.Deps = append(w.Deps, dep.Before(start, event(i)), dep.Before(event(i), join))
	}
	return spread(fmt.Sprintf("diamond-%d", width), w, sites,
		func(i int) simnet.Time { return simnet.Time(10 + 20*i) })
}

// Random builds nDeps random precedence/implication dependencies over
// nEvents events; the precedence pairs always go from a lower to a
// higher event index, so the specification is acyclic and satisfiable.
func Random(nDeps, nEvents int, seed int64, sites int) *Workload {
	r := rand.New(rand.NewSource(seed))
	w := &core.Workflow{}
	seen := map[string]bool{}
	for len(w.Deps) < nDeps {
		i := r.Intn(nEvents - 1)
		j := i + 1 + r.Intn(nEvents-i-1)
		kind := r.Intn(2)
		key := fmt.Sprintf("%d-%d-%d", kind, i, j)
		if seen[key] {
			continue
		}
		seen[key] = true
		if kind == 0 {
			w.Deps = append(w.Deps, dep.Before(event(i), event(j)))
		} else {
			w.Deps = append(w.Deps, dep.Implies(event(i), event(j)))
		}
	}
	return spread(fmt.Sprintf("random-%d-%d", nDeps, nEvents), w, sites,
		func(i int) simnet.Time { return simnet.Time(10 + 50*i) })
}

// Mix builds nDeps dependencies drawn from the full paper family —
// precedence, implication, enabling, compensation, exclusion, and the
// Example 13 mutex triple — over nEvents events.  Pair-shaped
// dependencies always point from a lower to a higher event index, so
// the specification stays acyclic and satisfiable; exclusion and mutex
// are order-free and add the negative/◇ guard shapes the simpler
// generators never produce.  The model checker's fuzz harness
// (internal/mc) feeds on it: small universes, every dependency family,
// deterministic per (nDeps, nEvents, seed).
func Mix(nDeps, nEvents int, seed int64, sites int) *Workload {
	if nEvents < 3 {
		nEvents = 3
	}
	r := rand.New(rand.NewSource(seed))
	w := &core.Workflow{}
	seen := map[string]bool{}
	for guard := 0; len(w.Deps) < nDeps && guard < 64*nDeps; guard++ {
		i := r.Intn(nEvents - 1)
		j := i + 1 + r.Intn(nEvents-i-1)
		kind := r.Intn(6)
		key := fmt.Sprintf("%d-%d-%d", kind, i, j)
		if seen[key] {
			continue
		}
		seen[key] = true
		switch kind {
		case 0:
			w.Deps = append(w.Deps, dep.Before(event(i), event(j)))
		case 1:
			w.Deps = append(w.Deps, dep.Implies(event(i), event(j)))
		case 2:
			w.Deps = append(w.Deps, dep.Enables(event(i), event(j)))
		case 3:
			w.Deps = append(w.Deps, dep.Exclusive(event(i), event(j)))
		case 4:
			// Compensation needs a third event above j.
			if j >= nEvents-1 {
				continue
			}
			k := j + 1 + r.Intn(nEvents-j-1)
			key = fmt.Sprintf("4-%d-%d-%d", i, j, k)
			if seen[key] {
				continue
			}
			seen[key] = true
			w.Deps = append(w.Deps, dep.Compensate(event(i), event(j), event(k)))
		case 5:
			if j >= nEvents-1 {
				continue
			}
			k := j + 1 + r.Intn(nEvents-j-1)
			key = fmt.Sprintf("5-%d-%d-%d", i, j, k)
			if seen[key] {
				continue
			}
			seen[key] = true
			w.Deps = append(w.Deps, dep.MutexPair(event(i), event(j), event(k)))
		}
	}
	return spread(fmt.Sprintf("mix-%d-%d-%d", nDeps, nEvents, seed), w, sites,
		func(i int) simnet.Time { return simnet.Time(10 + 30*i) })
}

// Travel builds n independent instances of the Example 4 workflow,
// suffixing events with the instance id — the embarrassing-parallel
// case where Theorem 2/4 independence pays off.
func Travel(n int) *Workload {
	wl := &Workload{Name: fmt.Sprintf("travel-%d", n), Workflow: &core.Workflow{}, Placement: spec.Placement{}}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%03d", i)
		sBuy := algebra.Sym("s_buy" + id)
		cBuy := algebra.Sym("c_buy" + id)
		sBook := algebra.Sym("s_book" + id)
		cBook := algebra.Sym("c_book" + id)
		sCancel := algebra.Sym("s_cancel" + id)
		wl.Workflow.Deps = append(wl.Workflow.Deps,
			dep.Implies(sBuy, sBook),
			dep.Enables(cBook, cBuy),
			dep.Compensate(cBook, cBuy, sCancel),
		)
		buySite := simnet.SiteID("buy" + id)
		bookSite := simnet.SiteID("book" + id)
		cancelSite := simnet.SiteID("cancel" + id)
		for _, ev := range []algebra.Symbol{sBuy, cBuy} {
			wl.Placement[ev.Key()] = buySite
		}
		for _, ev := range []algebra.Symbol{sBook, cBook} {
			wl.Placement[ev.Key()] = bookSite
		}
		wl.Placement[sCancel.Key()] = cancelSite
		wl.Triggerable = append(wl.Triggerable, sBook.Key(), sCancel.Key())
		wl.Agents = append(wl.Agents,
			&spec.AgentScript{ID: "buy" + id, Site: buySite, Steps: []spec.Step{
				{Sym: sBuy, Think: 10}, {Sym: cBuy, Think: 40},
			}},
			&spec.AgentScript{ID: "book" + id, Site: bookSite, Steps: []spec.Step{
				{Sym: sBook, Think: 30}, {Sym: cBook, Think: 20},
			}},
		)
	}
	return wl
}

// Suite returns the P5 comparison workloads.
func Suite() []*Workload {
	return []*Workload{
		Chain(8, 4),
		ReverseChain(8, 4),
		Fan(8, 4),
		Diamond(4, 4),
		Travel(3),
		Random(6, 10, 7, 4),
	}
}
