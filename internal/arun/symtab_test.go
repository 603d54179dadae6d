package arun_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/arun"
	"repro/internal/spec"
	"repro/internal/symtab"
)

// denseSrc is the all-pairs precedence workflow over n events spread
// round-robin over three sites, one agent attempting e1..en in order.
func denseSrc(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workflow dense%d\n", n)
	for i := 2; i <= n; i++ {
		for j := 1; j < i; j++ {
			fmt.Fprintf(&b, "dep ~e%d + e%d . e%d\n", i, j, i)
		}
	}
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "event e%d site=s%d\n", i, (i-1)%3+1)
	}
	b.WriteString("agent w site=s1\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "  step e%d think=5\n", i)
	}
	return b.String()
}

// TestPlanSymbolTable checks the plan's dense ids over every workflow
// in testdata/ plus dense6 and dense12: each id round-trips through its
// name, id^1 is the complement and id>>1 the event, the ids are
// exactly the plan's events (dense, both polarities), and a second
// NewPlan of the same spec assigns the same ids.
func TestPlanSymbolTable(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.wf")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata workflows: %v", err)
	}
	tests := []struct {
		name string
		spec func(t *testing.T) *spec.Spec
	}{
		{name: "dense6", spec: func(t *testing.T) *spec.Spec { return parse(t, denseSrc(6)) }},
		{name: "dense12", spec: func(t *testing.T) *spec.Spec { return parse(t, denseSrc(12)) }},
	}
	for _, f := range files {
		f := f
		tests = append(tests, struct {
			name string
			spec func(t *testing.T) *spec.Spec
		}{name: filepath.Base(f), spec: func(t *testing.T) *spec.Spec { return loadSpec(t, f) }})
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			sp := tc.spec(t)
			p1, err := arun.NewPlan(sp, arun.PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			p2, err := arun.NewPlan(tc.spec(t), arun.PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			tab, again := p1.Symbols(), p2.Symbols()

			// Dense: the ids are both polarities of exactly the plan's
			// events, the alphabet's and the scripts' extras.
			events := map[string]bool{}
			for _, b := range sp.Workflow.Alphabet().Bases() {
				events[b.Key()] = true
			}
			var walk func(steps []spec.Step)
			walk = func(steps []spec.Step) {
				for _, st := range steps {
					events[st.Sym.Base().Key()] = true
					walk(st.OnReject)
				}
			}
			for _, ag := range sp.Agents {
				walk(ag.Steps)
			}
			if tab.Events() != len(events) || tab.Len() != 2+2*len(events) {
				t.Fatalf("%d events in %d ids, want %d events in %d ids", tab.Events(), tab.Len(), len(events), 2+2*len(events))
			}

			for id := symtab.ID(2); int(id) < tab.Len(); id++ {
				sym := tab.Sym(id)
				// id ↔ name.
				if sym.Key() != tab.Key(id) {
					t.Errorf("id %d: Sym %s, Key %s", id, sym, tab.Key(id))
				}
				if got, ok := tab.Lookup(sym); !ok || got != id {
					t.Errorf("Lookup(%s) = %d, %v; want %d", sym, got, ok, id)
				}
				if got, ok := tab.LookupKey(tab.Key(id)); !ok || got != id {
					t.Errorf("LookupKey(%s) = %d, %v; want %d", tab.Key(id), got, ok, id)
				}
				if !events[sym.Base().Key()] || sym.Bar != id.Bar() {
					t.Errorf("id %d names %s, which is not a plan event with bar %v", id, sym, id.Bar())
				}
				// Complement ↔ id^1.
				if want := sym.Complement().Key(); tab.Key(id^1) != want || tab.Key(id.Complement()) != want {
					t.Errorf("complement of %s: id %d names %s, want %s", sym, id^1, tab.Key(id^1), want)
				}
				// SameEvent ↔ id>>1.
				for o := symtab.ID(2); int(o) < tab.Len(); o++ {
					if byName, byID := sym.SameEvent(tab.Sym(o)), id.SameEvent(o); byName != byID || byID != (id>>1 == o>>1) {
						t.Errorf("SameEvent(%s, %s): by name %v, by id %v", sym, tab.Sym(o), byName, byID)
					}
				}
				// Identical across builds.
				if again.Key(id) != tab.Key(id) {
					t.Errorf("id %d names %s in one build and %s in another", id, tab.Key(id), again.Key(id))
				}
			}
			if again.Len() != tab.Len() {
				t.Errorf("second build has %d ids, first %d", again.Len(), tab.Len())
			}
			if _, ok := tab.Lookup(algebra.Sym("no_such_event")); ok {
				t.Error("a name outside the plan resolved to an id")
			}
		})
	}
}

func parse(t *testing.T, src string) *spec.Spec {
	t.Helper()
	sp, err := spec.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}
