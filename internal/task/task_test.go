package task

import (
	"sort"
	"testing"
)

func TestSkeletonsValidate(t *testing.T) {
	for _, sk := range []*Skeleton{Application(), Transaction(), RDATransaction()} {
		if err := sk.Validate(); err != nil {
			t.Errorf("%s: %v", sk.Name, err)
		}
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	bad := []*Skeleton{
		{},
		{Name: "x"},
		{Name: "x", Initial: "i", Transitions: []Transition{{From: "i", To: "j"}}},
		{Name: "x", Initial: "i", Finals: map[string]bool{"zzz": true},
			Transitions: []Transition{{From: "i", To: "j", Event: "e"}}},
	}
	for i, sk := range bad {
		if err := sk.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestTransactionLifecycle(t *testing.T) {
	in, err := NewInstance(Transaction(), "buy")
	if err != nil {
		t.Fatal(err)
	}
	if in.Done() {
		t.Fatal("fresh instance must not be done")
	}
	if got := in.Possible(); len(got) != 1 || got[0] != "start" {
		t.Fatalf("initial possible: %v", got)
	}
	if err := in.Apply("commit"); err == nil {
		t.Fatal("commit before start must fail")
	}
	if err := in.Apply("start"); err != nil {
		t.Fatal(err)
	}
	if got := in.Possible(); len(got) != 2 {
		t.Fatalf("active possible: %v", got)
	}
	if !in.Can("abort") || !in.Can("commit") {
		t.Fatal("active state must allow commit and abort")
	}
	if err := in.Apply("commit"); err != nil {
		t.Fatal(err)
	}
	if !in.Done() || in.State != "committed" {
		t.Fatalf("after commit: state %q done=%v", in.State, in.Done())
	}
}

func TestRDATransactionPreparedPath(t *testing.T) {
	in, _ := NewInstance(RDATransaction(), "acct")
	for _, ev := range []string{"start", "precommit", "commit"} {
		if err := in.Apply(ev); err != nil {
			t.Fatalf("%s: %v", ev, err)
		}
	}
	if in.State != "committed" {
		t.Fatalf("state: %q", in.State)
	}
	// Abort possible from both active and prepared.
	in2, _ := NewInstance(RDATransaction(), "a2")
	in2.Apply("start")
	if !in2.Can("abort") {
		t.Error("active must allow abort")
	}
	in2.Apply("precommit")
	if !in2.Can("abort") {
		t.Error("prepared must allow abort")
	}
}

func TestEventNamingMatchesPaper(t *testing.T) {
	in, _ := NewInstance(Transaction(), "buy")
	if got := in.Symbol("start").Key(); got != "start_buy" {
		t.Fatalf("symbol: %q", got)
	}
	if got := in.Symbol("commit").Complement().Key(); got != "~commit_buy" {
		t.Fatalf("complement symbol: %q", got)
	}
}

func TestAttributes(t *testing.T) {
	sk := Transaction()
	if !sk.EventAttrsOf("start").Triggerable {
		t.Error("start must be triggerable")
	}
	if sk.EventAttrsOf("abort").Rejectable {
		t.Error("abort must not be rejectable (the scheduler has no choice)")
	}
	if !sk.EventAttrsOf("commit").Rejectable || !sk.EventAttrsOf("commit").Delayable {
		t.Error("commit must be rejectable and delayable")
	}
	if sk.EventAttrsOf("unknown") != (EventAttrs{}) {
		t.Error("unknown events default to zero attributes")
	}
}

func TestEventNames(t *testing.T) {
	got := RDATransaction().EventNames()
	want := []string{"abort", "commit", "precommit", "start"}
	if len(got) != len(want) {
		t.Fatalf("event names: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event names: %v", got)
		}
	}
}

func TestNewInstanceErrors(t *testing.T) {
	if _, err := NewInstance(Transaction(), ""); err == nil {
		t.Error("empty id must be rejected")
	}
	if _, err := NewInstance(&Skeleton{}, "x"); err == nil {
		t.Error("invalid skeleton must be rejected")
	}
}

func TestReachableEvents(t *testing.T) {
	sk := RDATransaction()
	fromInitial := sk.ReachableEvents("initial")
	for _, e := range []string{"start", "precommit", "commit", "abort"} {
		if !fromInitial[e] {
			t.Errorf("initial must reach %s", e)
		}
	}
	fromPrepared := sk.ReachableEvents("prepared")
	if fromPrepared["start"] || fromPrepared["precommit"] {
		t.Errorf("prepared must not reach start/precommit: %v", fromPrepared)
	}
	if !fromPrepared["commit"] || !fromPrepared["abort"] {
		t.Errorf("prepared must reach commit and abort: %v", fromPrepared)
	}
	if got := sk.ReachableEvents("committed"); len(got) != 0 {
		t.Errorf("final state must reach nothing: %v", got)
	}
}

func TestPossibleAfterFinal(t *testing.T) {
	in, _ := NewInstance(Transaction(), "t")
	in.Apply("start")
	in.Apply("abort")
	if got := in.Possible(); len(got) != 0 {
		t.Errorf("aborted instance has no possible events: %v", got)
	}
	if err := in.Apply("commit"); err == nil {
		t.Error("commit after abort must fail")
	}
}

// Can reports whether the event is possible in the current state.
func (in *Instance) Can(event string) bool {
	_, ok := in.Skel.Next(in.State, event)
	return ok
}

// Done reports whether the instance reached a final state.
func (in *Instance) Done() bool { return in.Skel.Finals[in.State] }

// Possible returns the events possible in the current state, sorted.
func (in *Instance) Possible() []string {
	var out []string
	for _, tr := range in.Skel.Transitions {
		if tr.From == in.State {
			out = append(out, tr.Event)
		}
	}
	sort.Strings(out)
	return out
}
