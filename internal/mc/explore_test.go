package mc

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/algebra"
	"repro/internal/spec"
	"repro/internal/symtab"
)

func specPaths() ([]string, error) {
	return filepath.Glob(filepath.Join("..", "..", "testdata", "*.wf"))
}

func exploreSpec(t *testing.T, path string) *spec.Spec {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := spec.Parse(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return s
}

// TestExploreSchedulerInterleavings drives the real scheduler stack
// (plan → runner → actors) over the controllable transport through
// every announcement interleaving of each testdata spec, and asserts
// every reachable outcome fingerprint is in the trace-level admissible
// set.
func TestExploreSchedulerInterleavings(t *testing.T) {
	paths, err := specPaths()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		p := p
		t.Run(p, func(t *testing.T) {
			opt := ExploreOptions{Budget: 60 * time.Second}
			if testing.Short() {
				opt.MaxRuns = 200
				opt.Budget = 10 * time.Second
			}
			rep, err := Explore(p, exploreSpec(t, p), opt)
			if err != nil {
				t.Fatal(err)
			}
			if rep.SkipReason != "" {
				t.Logf("SKIPPED (not silently): %s: %s", p, rep.SkipReason)
				return
			}
			if rep.Violation != "" {
				t.Fatalf("outcome outside admissible set: %s\ntrace: %v", rep.Violation, rep.ViolationTrace)
			}
			if rep.Truncated {
				t.Logf("TRUNCATED (not silently): %s stopped after %d runs / %v", p, rep.Runs, rep.Elapsed)
			}
			fps := make([]string, 0, len(rep.Outcomes))
			for fp := range rep.Outcomes {
				fps = append(fps, fp)
			}
			sort.Strings(fps)
			for _, fp := range fps {
				t.Logf("outcome ×%-4d %s", rep.Outcomes[fp], fp)
			}
			t.Logf("%s: runs=%d choicePoints=%d pruned=%d distinctOutcomes=%d elapsed=%v",
				p, rep.Runs, rep.ChoicePoints, rep.PrunedStates, len(rep.Outcomes), rep.Elapsed)
		})
	}
}

// TestExploreDeterministicReplay pins the stateless-re-execution
// contract: running the empty script twice yields identical pick
// sequences and outcomes.
func TestExploreDeterministicReplay(t *testing.T) {
	paths, err := specPaths()
	if err != nil || len(paths) == 0 {
		t.Fatal("no specs")
	}
	sp := exploreSpec(t, paths[0])
	opt := ExploreOptions{MaxRuns: 1}
	a, err := Explore(paths[0], sp, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(paths[0], sp, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.SkipReason != "" {
		t.Skipf("spec skipped: %s", a.SkipReason)
	}
	if len(a.Outcomes) != len(b.Outcomes) {
		t.Fatalf("non-deterministic exploration: %v vs %v", a.Outcomes, b.Outcomes)
	}
	for fp := range a.Outcomes {
		if b.Outcomes[fp] != a.Outcomes[fp] {
			t.Fatalf("non-deterministic exploration: %v vs %v", a.Outcomes, b.Outcomes)
		}
	}
}

// TestQueueDigestSeesEveryField: two explorer states whose queues
// differ in any one message field get different visited keys, so the
// explorer never prunes a state it has not seen.
func TestQueueDigestSeesEveryField(t *testing.T) {
	tab := symtab.New()
	e := tab.Add(algebra.Sym("e"))
	f := tab.Add(algebra.Sym("f"))
	tests := []struct {
		name string
		a, b any
	}{
		{"release fired", actor.ReleaseMsg{Target: e, Requester: f, Promise: true},
			actor.ReleaseMsg{Target: e, Requester: f, Promise: true, Fired: true}},
		{"release promise", actor.ReleaseMsg{Target: e, Requester: f},
			actor.ReleaseMsg{Target: e, Requester: f, Promise: true}},
		{"attempt forced", actor.AttemptMsg{ID: e}, actor.AttemptMsg{ID: e, Forced: true}},
		{"attempt reply site", actor.AttemptMsg{ID: e}, actor.AttemptMsg{ID: e, ReplyTo: "s1"}},
		{"inquire hypothesis", actor.InquireMsg{Target: e, Requester: f, Hyp: []symtab.ID{f}},
			actor.InquireMsg{Target: e, Requester: f, Hyp: []symtab.ID{f, e.Complement()}}},
		{"reply conditions", actor.InquireReplyMsg{Target: e, Requester: f, Promised: true, Conds: []symtab.ID{f}},
			actor.InquireReplyMsg{Target: e, Requester: f, Promised: true, Conds: []symtab.ID{f.Complement()}}},
		{"reply after requester", actor.InquireReplyMsg{Target: e, Requester: f, Held: true},
			actor.InquireReplyMsg{Target: e, Requester: f, Held: true, AfterReq: true}},
		{"decision reason", actor.DecisionMsg{ID: e, Reason: "x"}, actor.DecisionMsg{ID: e, Reason: "y"}},
		{"decision times", actor.DecisionMsg{ID: e, AttemptedAt: 1}, actor.DecisionMsg{ID: e, AttemptedAt: 2}},
	}
	link := []linkKey{{"s0", "s1"}}
	digest := func(m any) string {
		c := newCtrlNet(nil, nil)
		c.UseSymbols(tab)
		c.Send(link[0].from, link[0].to, m)
		return c.queueDigest(link)
	}
	for _, tt := range tests {
		if digest(tt.a) == digest(tt.b) {
			t.Errorf("%s: queues %#v and %#v share a digest", tt.name, tt.a, tt.b)
		}
	}
}
