package param

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
)

// satisfiesInstancesFull is the reference form of SatisfiesInstances:
// every ground instance is checked against the whole trace.
func satisfiesInstancesFull(m *Manager) (violated *algebra.Expr, ok bool) {
	tr := m.Trace()
	for _, d := range m.deps {
		for _, b := range groundBindings(d, tr) {
			inst := SubstExpr(d, b)
			if !Ground(inst) {
				continue
			}
			if !tr.Satisfies(inst) {
				return inst, false
			}
		}
	}
	return nil, true
}

// assertSameVerdict requires the projected check to agree with the
// reference on the manager's trace, down to the violated instance, and
// returns that verdict.
func assertSameVerdict(t *testing.T, m *Manager) bool {
	t.Helper()
	gotInst, gotOK := m.SatisfiesInstances()
	wantInst, wantOK := satisfiesInstancesFull(m)
	if gotOK != wantOK {
		t.Fatalf("trace %v: projected ok=%v, full ok=%v (full violated %v)", m.Trace(), gotOK, wantOK, wantInst)
	}
	if (gotInst == nil) != (wantInst == nil) || gotInst != nil && !gotInst.Equal(wantInst) {
		t.Fatalf("trace %v: projected violated %v, full violated %v", m.Trace(), gotInst, wantInst)
	}
	return gotOK
}

// runMutex drives the Example 13 manager through iters loop iterations
// (four token attempts each), optionally on the from-scratch path.
func runMutex(t *testing.T, iters int, scratch bool) *Manager {
	t.Helper()
	m, err := NewManager(mutexDeps()...)
	if err != nil {
		t.Fatal(err)
	}
	if scratch {
		m.DisableIncremental()
	}
	var c Counter
	for i := 0; i < iters; i++ {
		for _, base := range []string{"b1", "e1", "b2", "e2"} {
			if _, err := m.Attempt(c.Next(sym(base))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m
}

// TestSatisfiesInstancesProjectedMatchesFull: on the Example 13 manager
// traces the projected check returns the full check's verdict at every
// iteration count.
func TestSatisfiesInstancesProjectedMatchesFull(t *testing.T) {
	for _, iters := range []int{1, 2, 5, 12} {
		for _, scratch := range []bool{false, true} {
			t.Run(fmt.Sprintf("iters-%d/scratch-%v", iters, scratch), func(t *testing.T) {
				if !assertSameVerdict(t, runMutex(t, iters, scratch)) {
					t.Fatal("the manager admitted a violating trace")
				}
			})
		}
	}
}

// TestSatisfiesInstancesProjectedViolation: on a hand-built trace whose
// critical sections overlap, the projected check reports the same first
// violated instance as the full check.
func TestSatisfiesInstancesProjectedViolation(t *testing.T) {
	m := runMutex(t, 3, false)
	// T2 enters its fourth section while T1 is inside its fourth.
	m.trace = append(m.trace, sym("b1[4]"), sym("b2[4]"), sym("e1[4]"), sym("e2[4]"))
	if assertSameVerdict(t, m) {
		t.Fatalf("overlapping sections in %v must violate an instance", m.Trace())
	}
}

// TestSatisfiesInstancesProjectedRandom: arbitrary token sequences —
// overlapping sections, complements, repeats across iterations — get
// the same verdict and violated instance from both checks.
func TestSatisfiesInstancesProjectedRandom(t *testing.T) {
	m, err := NewManager(mutexDeps()...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	violations := 0
	for i := 0; i < 300; i++ {
		m.trace = m.trace[:0]
		for n := rng.Intn(12); n > 0; n-- {
			s := sym(fmt.Sprintf("%s[%d]", []string{"b1", "e1", "b2", "e2"}[rng.Intn(4)], 1+rng.Intn(3)))
			if rng.Intn(4) == 0 {
				s = s.Complement()
			}
			m.trace = append(m.trace, s)
		}
		if !assertSameVerdict(t, m) {
			violations++
		}
	}
	if violations == 0 {
		t.Fatal("no random trace violated an instance; the comparison is vacuous")
	}
}
