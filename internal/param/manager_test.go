package param

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
)

// mutexDeps is Example 13 in both directions: if Ti enters its
// critical section before Tj, Ti exits before Tj enters.
func mutexDeps() []string {
	return []string{
		"b2[?y] . b1[?x] + ~e1[?x] + ~b2[?y] + e1[?x] . b2[?y]",
		"b1[?x] . b2[?y] + ~e2[?y] + ~b1[?x] + e2[?y] . b1[?x]",
	}
}

// TestExample13MutualExclusion: two looping tasks never overlap in
// their critical sections, across multiple iterations.
func TestExample13MutualExclusion(t *testing.T) {
	m, err := NewManager(mutexDeps()...)
	if err != nil {
		t.Fatal(err)
	}
	var c Counter

	// Iteration 1: T1 enters, T2's entry must park, T1 exits, T2 enters.
	b1 := c.Next(sym("b1"))
	if out, err := m.Attempt(b1); err != nil || out != Accepted {
		t.Fatalf("b1[1]: %v %v (guard instances: %v)", out, err, m.GuardInstances(b1))
	}
	b2 := c.Next(sym("b2"))
	if out, _ := m.Attempt(b2); out != Parked {
		t.Fatalf("b2[1] during T1's CS: got %v want parked (trace %v)", out, m.Trace())
	}
	e1 := c.Next(sym("e1"))
	if out, _ := m.Attempt(e1); out != Accepted {
		t.Fatalf("e1[1]: got %v", out)
	}
	if !m.hist.Occurred(b2) {
		t.Fatalf("b2[1] must be admitted after T1 exits, trace %v", m.Trace())
	}

	// Iteration 2 (arbitrary task structure — the loop): T2 still in
	// its CS, so T1's next entry parks; after e2, it is admitted.
	b1b := c.Next(sym("b1"))
	if out, _ := m.Attempt(b1b); out != Parked {
		t.Fatalf("b1[2] during T2's CS: got %v want parked (trace %v)", out, m.Trace())
	}
	e2 := c.Next(sym("e2"))
	if out, _ := m.Attempt(e2); out != Accepted {
		t.Fatalf("e2[1]: got %v", out)
	}
	if !m.hist.Occurred(b1b) {
		t.Fatalf("b1[2] must be admitted after T2 exits, trace %v", m.Trace())
	}

	if inst, ok := m.SatisfiesInstances(); !ok {
		t.Fatalf("trace %v violates instance %v", m.Trace(), inst)
	}
	assertNoOverlap(t, m.Trace())
}

// assertNoOverlap checks the critical sections never interleave:
// between any b_i[k] and the matching e_i[k], no b_j occurs.
func assertNoOverlap(t *testing.T, tr algebra.Trace) {
	t.Helper()
	open := ""
	for _, s := range tr {
		switch s.Name {
		case "b1", "b2":
			if open != "" {
				t.Fatalf("overlapping critical sections in %v", tr)
			}
			open = s.Name
		case "e1":
			if open != "b1" {
				t.Fatalf("exit without entry in %v", tr)
			}
			open = ""
		case "e2":
			if open != "b2" {
				t.Fatalf("exit without entry in %v", tr)
			}
			open = ""
		}
	}
}

// TestManagerLoop runs many alternating iterations, exercising guard
// resurrection at scale.
func TestManagerLoop(t *testing.T) {
	m, err := NewManager(mutexDeps()...)
	if err != nil {
		t.Fatal(err)
	}
	var c Counter
	for i := 0; i < 10; i++ {
		b1 := c.Next(sym("b1"))
		if out, _ := m.Attempt(b1); out != Accepted {
			t.Fatalf("iter %d: b1 got %v (trace %v)", i, out, m.Trace())
		}
		e1 := c.Next(sym("e1"))
		if out, _ := m.Attempt(e1); out != Accepted {
			t.Fatalf("iter %d: e1 got %v", i, out)
		}
		b2 := c.Next(sym("b2"))
		if out, _ := m.Attempt(b2); out != Accepted {
			t.Fatalf("iter %d: b2 got %v (trace %v)", i, out, m.Trace())
		}
		e2 := c.Next(sym("e2"))
		if out, _ := m.Attempt(e2); out != Accepted {
			t.Fatalf("iter %d: e2 got %v", i, out)
		}
	}
	if inst, ok := m.SatisfiesInstances(); !ok {
		t.Fatalf("trace %v violates %v", m.Trace(), inst)
	}
	if len(m.Trace()) != 40 {
		t.Fatalf("trace length: %d", len(m.Trace()))
	}
	assertNoOverlap(t, m.Trace())
}

// TestManagerInterleavedParking: parked entries are admitted in cascade
// when the blocking section exits.
func TestManagerInterleavedParking(t *testing.T) {
	m, _ := NewManager(mutexDeps()...)
	var c Counter
	b1 := c.Next(sym("b1"))
	m.Attempt(b1)
	b2 := c.Next(sym("b2"))
	if out, _ := m.Attempt(b2); out != Parked {
		t.Fatalf("b2 must park, got %v", out)
	}
	if got := m.ParkedTokens(); len(got) != 1 {
		t.Fatalf("parked: %v", got)
	}
	e1 := c.Next(sym("e1"))
	m.Attempt(e1)
	if got := m.ParkedTokens(); len(got) != 0 {
		t.Fatalf("parked after exit: %v", got)
	}
	assertNoOverlap(t, m.Trace())
}

// TestManagerForceAndReject: forcing records occurrences regardless of
// guards; attempting against an occurred complement rejects.
func TestManagerForceAndReject(t *testing.T) {
	m, _ := NewManager("~a[?x] + b[?x]")
	if err := m.Force(sym("a[1]")); err != nil {
		t.Fatal(err)
	}
	if err := m.Force(sym("~a[1]")); err == nil {
		t.Fatal("forcing the complement of an occurred event must fail")
	}
	if out, _ := m.Attempt(sym("~a[1]")); out != Rejected {
		t.Fatalf("~a[1] after a[1]: got %v", out)
	}
	if out, _ := m.Attempt(sym("a[1]")); out != Accepted {
		t.Fatal("re-attempting an occurred event must accept")
	}
	if _, err := m.Attempt(sym("a[?z]")); err == nil {
		t.Fatal("non-ground attempts must error")
	}
	if err := m.Force(sym("a[?z]")); err == nil {
		t.Fatal("non-ground force must error")
	}
}

func TestManagerErrors(t *testing.T) {
	if _, err := NewManager(); err == nil {
		t.Fatal("empty manager must error")
	}
	if _, err := NewManager("e +"); err == nil {
		t.Fatal("syntax errors must propagate")
	}
}

// TestManagerGuardTemplatesCached: guard synthesis happens once per
// (dependency, event type).
func TestManagerGuardTemplatesCached(t *testing.T) {
	m, _ := NewManager(mutexDeps()...)
	var c Counter
	for i := 0; i < 3; i++ {
		m.Attempt(c.Next(sym("b1")))
		m.Attempt(c.Next(sym("e1")))
	}
	nTemplates := len(m.templates)
	for i := 0; i < 3; i++ {
		m.Attempt(c.Next(sym("b1")))
		m.Attempt(c.Next(sym("e1")))
	}
	if len(m.templates) != nTemplates {
		t.Fatalf("template cache grew: %d → %d", nTemplates, len(m.templates))
	}
	if nTemplates == 0 {
		t.Fatal("templates must be cached")
	}
	_ = fmt.Sprintf("%v", m.Trace())
}

// TestExample13PaperDirectionOnly uses exactly the paper's single
// dependency (one direction): if T1 enters before T2, T1 exits before
// T2 enters.  T2's entry during T1's critical section parks; the
// reverse interleaving is unconstrained by this dependency.
func TestExample13PaperDirectionOnly(t *testing.T) {
	m, err := NewManager("b2[?y] . b1[?x] + ~e1[?x] + ~b2[?y] + e1[?x] . b2[?y]")
	if err != nil {
		t.Fatal(err)
	}
	var c Counter
	b1 := c.Next(sym("b1"))
	if out, _ := m.Attempt(b1); out != Accepted {
		t.Fatalf("b1[1]: %v", out)
	}
	b2 := c.Next(sym("b2"))
	if out, _ := m.Attempt(b2); out != Parked {
		t.Fatalf("b2[1] during T1's CS: %v", out)
	}
	e1 := c.Next(sym("e1"))
	if out, _ := m.Attempt(e1); out != Accepted {
		t.Fatalf("e1[1]: %v", out)
	}
	if !m.hist.Occurred(b2) {
		t.Fatalf("b2[1] must be admitted after T1 exits: %v", m.Trace())
	}
	// The one-directional dependency does not constrain T1 entering
	// while T2 is inside.
	b1b := c.Next(sym("b1"))
	if out, _ := m.Attempt(b1b); out != Accepted {
		t.Fatalf("b1[2] unconstrained by the one-direction dependency: %v", out)
	}
	if inst, ok := m.SatisfiesInstances(); !ok {
		t.Fatalf("trace %v violates %v", m.Trace(), inst)
	}
}

// Force makes a non-rejectable ground event occur regardless of its
// guard (abort-like events).
func (m *Manager) Force(ground algebra.Symbol) error {
	if !ground.Ground() {
		return fmt.Errorf("param: force of non-ground symbol %s", ground)
	}
	if m.hist.Occurred(ground) {
		return nil
	}
	if m.hist.Occurred(ground.Complement()) {
		return fmt.Errorf("param: cannot force %s: complement occurred", ground)
	}
	m.fire(ground)
	return nil
}

// ParkedTokens returns the currently parked tokens.
func (m *Manager) ParkedTokens() []algebra.Symbol {
	return append([]algebra.Symbol(nil), m.parked...)
}
