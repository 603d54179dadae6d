// Package task models the coarse task descriptions that agents expose
// to the scheduling system (paper §2, Figure 1).
//
// An agent embodies only the states and transitions of its task that
// are significant for coordination.  The task's invisible states stay
// hidden, preserving local autonomy: the scheduler never sees inside a
// task, only its significant events.  Each significant event carries
// the attributes of the literature ([2], [14]): whether the scheduler
// may trigger it, reject it, or delay it.
//
// The package provides the two skeletons of Figure 1 — a typical
// application and an RDA-style transaction — plus a plain transaction
// and a builder for custom skeletons, and Instance, a running task
// that walks its skeleton and names its significant events as algebra
// symbols.
package task

import (
	"fmt"
	"sort"

	"repro/internal/algebra"
)

// EventAttrs are the scheduling attributes of a significant event.
type EventAttrs struct {
	// Triggerable: the scheduler may cause the event in the task
	// proactively (e.g. start).
	Triggerable bool
	// Rejectable: the scheduler may refuse the event when the task
	// attempts it (e.g. commit).  Non-rejectable events, like abort,
	// must be accepted.
	Rejectable bool
	// Delayable: the scheduler may park the attempt and decide later.
	// Non-delayable events must be decided immediately.
	Delayable bool
}

// Transition is one significant state change of a task.
type Transition struct {
	From, To string
	// Event is the significant event label (e.g. "commit").
	Event string
}

// Skeleton is the coarse description of a task: the part the agent
// reveals to the scheduler.
type Skeleton struct {
	// Name identifies the skeleton kind (e.g. "rda-transaction").
	Name string
	// Initial is the start state.
	Initial string
	// Finals are the terminal states.
	Finals map[string]bool
	// Transitions are the significant transitions.
	Transitions []Transition
	// Attrs maps event label → attributes; events without an entry
	// default to the zero attributes (uncontrollable, unrejectable,
	// undelayable).
	Attrs map[string]EventAttrs
}

// Application is the "typical application" skeleton of Figure 1:
// start, then finish.
func Application() *Skeleton {
	return &Skeleton{
		Name:    "application",
		Initial: "initial",
		Finals:  map[string]bool{"done": true},
		Transitions: []Transition{
			{From: "initial", To: "running", Event: "start"},
			{From: "running", To: "done", Event: "finish"},
		},
		Attrs: map[string]EventAttrs{
			"start":  {Triggerable: true, Rejectable: true, Delayable: true},
			"finish": {Delayable: true},
		},
	}
}

// Transaction is a flat database transaction: start, then commit or
// abort.  Abort is uncontrollable and non-rejectable — the scheduler
// "has no choice but to accept nonrejectable events like abort".
func Transaction() *Skeleton {
	return &Skeleton{
		Name:    "transaction",
		Initial: "initial",
		Finals:  map[string]bool{"committed": true, "aborted": true},
		Transitions: []Transition{
			{From: "initial", To: "active", Event: "start"},
			{From: "active", To: "committed", Event: "commit"},
			{From: "active", To: "aborted", Event: "abort"},
		},
		Attrs: map[string]EventAttrs{
			"start":  {Triggerable: true, Rejectable: true, Delayable: true},
			"commit": {Rejectable: true, Delayable: true},
			"abort":  {},
		},
	}
}

// RDATransaction is the RDA transaction of Figure 1, which exposes a
// visible precommit (prepared) state.
func RDATransaction() *Skeleton {
	return &Skeleton{
		Name:    "rda-transaction",
		Initial: "initial",
		Finals:  map[string]bool{"committed": true, "aborted": true},
		Transitions: []Transition{
			{From: "initial", To: "active", Event: "start"},
			{From: "active", To: "prepared", Event: "precommit"},
			{From: "active", To: "aborted", Event: "abort"},
			{From: "prepared", To: "committed", Event: "commit"},
			{From: "prepared", To: "aborted", Event: "abort"},
		},
		Attrs: map[string]EventAttrs{
			"start":     {Triggerable: true, Rejectable: true, Delayable: true},
			"precommit": {Rejectable: true, Delayable: true},
			"commit":    {Triggerable: true, Rejectable: true, Delayable: true},
			"abort":     {},
		},
	}
}

// Validate checks the skeleton's internal consistency.
func (sk *Skeleton) Validate() error {
	if sk.Name == "" {
		return fmt.Errorf("task: skeleton without a name")
	}
	if sk.Initial == "" {
		return fmt.Errorf("task: skeleton %s without an initial state", sk.Name)
	}
	states := map[string]bool{sk.Initial: true}
	for _, tr := range sk.Transitions {
		if tr.Event == "" {
			return fmt.Errorf("task: skeleton %s has a transition without an event", sk.Name)
		}
		states[tr.From] = true
		states[tr.To] = true
	}
	for f := range sk.Finals {
		if !states[f] {
			return fmt.Errorf("task: skeleton %s: final state %q unreachable by any transition", sk.Name, f)
		}
	}
	return nil
}

// Next returns the state reached from a state by an event.
func (sk *Skeleton) Next(state, event string) (string, bool) {
	for _, tr := range sk.Transitions {
		if tr.From == state && tr.Event == event {
			return tr.To, true
		}
	}
	return "", false
}

// EventNames returns the distinct significant event labels, sorted.
func (sk *Skeleton) EventNames() []string {
	seen := map[string]bool{}
	for _, tr := range sk.Transitions {
		seen[tr.Event] = true
	}
	out := make([]string, 0, len(seen))
	for e := range seen {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// EventAttrsOf returns the attributes of an event label.
func (sk *Skeleton) EventAttrsOf(event string) EventAttrs {
	if sk.Attrs == nil {
		return EventAttrs{}
	}
	return sk.Attrs[event]
}

// Instance is a running task: a skeleton plus an identity and the
// current significant state.
type Instance struct {
	Skel *Skeleton
	// ID distinguishes this task, e.g. "buy"; the instance's events
	// are named <event>_<ID>, matching the paper's s_buy, c_buy.
	ID    string
	State string
}

// NewInstance starts an instance in the skeleton's initial state.
func NewInstance(sk *Skeleton, id string) (*Instance, error) {
	if err := sk.Validate(); err != nil {
		return nil, err
	}
	if id == "" {
		return nil, fmt.Errorf("task: instance of %s needs an id", sk.Name)
	}
	return &Instance{Skel: sk, ID: id, State: sk.Initial}, nil
}

// Symbol names a significant event of this instance as an algebra
// symbol: event "start" of task "buy" is s("start_buy").  The paper
// abbreviates these as s_buy etc.
func (in *Instance) Symbol(event string) algebra.Symbol {
	return algebra.Sym(event + "_" + in.ID)
}

// Apply performs a significant transition.
func (in *Instance) Apply(event string) error {
	next, ok := in.Skel.Next(in.State, event)
	if !ok {
		return fmt.Errorf("task %s: event %q not possible in state %q", in.ID, event, in.State)
	}
	in.State = next
	return nil
}

// ReachableEvents returns the event labels that can still occur from
// the given state, transitively.  An agent uses its complement — the
// impossible events — to inform the scheduler which transitions will
// never happen (§2: the agent reports uncontrollable facts), which is
// what lets dependencies on a task's non-occurrence resolve.
func (sk *Skeleton) ReachableEvents(state string) map[string]bool {
	out := map[string]bool{}
	seen := map[string]bool{state: true}
	stack := []string{state}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, tr := range sk.Transitions {
			if tr.From != cur {
				continue
			}
			out[tr.Event] = true
			if !seen[tr.To] {
				seen[tr.To] = true
				stack = append(stack, tr.To)
			}
		}
	}
	return out
}
