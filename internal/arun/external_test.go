package arun_test

import (
	"testing"
	"time"

	"repro/internal/actor"
	"repro/internal/algebra"
	"repro/internal/arun"
	"repro/internal/netwire"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/symtab"
)

func mustSym(t *testing.T, s string) algebra.Symbol {
	t.Helper()
	sym, err := algebra.ParseSymbol(s)
	if err != nil {
		t.Fatal(err)
	}
	return sym
}

// externalDrive feeds events one Attempt at a time and closes out, on
// the seeded simulator.
func externalDrive(t *testing.T, sp *spec.Spec, seed int64, events []string) *arun.Outcome {
	t.Helper()
	return externalDriveOn(t, sp, arun.NewSimTransport(seed, nil), false, events)
}

// externalDriveOn is externalDrive on any transport, serial or
// pipelined.
func externalDriveOn(t *testing.T, sp *spec.Spec, tr arun.Transport, pipelined bool, events []string) *arun.Outcome {
	t.Helper()
	plan, err := arun.NewPlan(sp, arun.PlanOptions{Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	r, err := plan.NewRunner(tr, arun.RunnerOptions{IdleTimeout: 15 * time.Second, Pipelined: pipelined})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if _, _, err := r.Attempt(mustSym(t, ev), false); err != nil {
			t.Fatalf("Attempt(%s): %v", ev, err)
		}
	}
	out, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestExternalMatchesScripted: for a single-agent spec the scripted
// drive is strictly serial — attempt, decide, next — which is exactly
// the external API's schedule, so feeding the same events through
// Attempt + Finish must reach the scripted Run's fingerprint.  This
// is the sim-oracle property the serving layer leans on for
// externally-announced instances.
func TestExternalMatchesScripted(t *testing.T) {
	sp, err := spec.ParseString(`workflow chain
dep c1: ~b + a . b
dep c2: ~c + b . c
event a site=s1
event b site=s2
event c site=s1
agent d site=s1
  step a think=10
  step b think=20
  step c think=30
`)
	if err != nil {
		t.Fatal(err)
	}
	oracle := runOn(t, sp, arun.NewSimTransport(1, nil))
	out := externalDrive(t, sp, 1, []string{"a", "b", "c"})
	if out.Fingerprint() != oracle.Fingerprint() {
		t.Errorf("external drive diverged:\n oracle   %s\n external %s",
			oracle.Fingerprint(), out.Fingerprint())
	}
	if !out.Satisfied {
		t.Error("external chain run unsatisfied")
	}
	if len(out.Unresolved) > 0 {
		t.Errorf("unresolved: %v", out.Unresolved)
	}
}

// TestExternalTravelSettles: the travel workflow is not confluent —
// the external schedule legally reaches a different maximal trace
// than the scripted one — but any external drive must settle to a
// satisfied, fully-resolved outcome, deterministically, and Finish
// must be stable under repetition.
func TestExternalTravelSettles(t *testing.T) {
	sp := loadSpec(t, "../../testdata/travel.wf")
	events := []string{"s_buy", "s_book", "c_buy", "c_book"}
	a := externalDrive(t, sp, 1, events)
	if !a.Satisfied {
		t.Errorf("external travel run unsatisfied: %s", a.Fingerprint())
	}
	if len(a.Unresolved) > 0 {
		t.Errorf("unresolved events: %v", a.Unresolved)
	}
	b := externalDrive(t, sp, 1, events)
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("external drive not deterministic:\n %s\n %s",
			a.Fingerprint(), b.Fingerprint())
	}

	// Finish is stable: driving the same instance again changes nothing.
	plan, err := arun.NewPlan(sp, arun.PlanOptions{Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := arun.NewSimTransport(1, nil)
	defer tr.Close()
	r, err := plan.NewRunner(tr, arun.RunnerOptions{IdleTimeout: 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if _, _, err := r.Attempt(mustSym(t, ev), false); err != nil {
			t.Fatal(err)
		}
	}
	out1, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	out2, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if out1.Fingerprint() != out2.Fingerprint() {
		t.Errorf("second Finish changed the outcome:\n %s\n %s",
			out1.Fingerprint(), out2.Fingerprint())
	}
}

// TestExternalPipelinedMesh: Attempt ×N + Finish on the loopback TCP
// mesh with the pipelined drive reaches the simulator oracle's
// fingerprint — Finish's closeout runs the same drive loop as Run, so
// its pipelined settle is the one Run uses.
func TestExternalPipelinedMesh(t *testing.T) {
	for _, tc := range []struct {
		file   string
		events []string
	}{
		{"../../testdata/travel.wf", []string{"s_buy", "s_book", "c_buy", "c_book"}},
		{"../../testdata/travel.wf", nil},
		{"../../testdata/mutex.wf", nil},
	} {
		sp := loadSpec(t, tc.file)
		oracle := externalDrive(t, sp, 1, tc.events)
		mesh, err := netwire.NewMesh(arun.DefaultDriver, arun.Sites(sp), nil)
		if err != nil {
			t.Fatal(err)
		}
		out := externalDriveOn(t, sp, mesh, true, tc.events)
		if out.Fingerprint() != oracle.Fingerprint() {
			t.Errorf("%s %v: pipelined mesh diverged:\n oracle %s\n mesh   %s",
				tc.file, tc.events, oracle.Fingerprint(), out.Fingerprint())
		}
	}
}

// delayTransport holds back one symbol's announcements to one site
// until the runner next waits for full quiescence: the announcement is
// still on its way while the drive moves on, as on a mesh where the
// decision outruns it to the driver site.
type delayTransport struct {
	arun.Transport
	sym  algebra.Symbol
	id   symtab.ID // sym's, once the plan hands over its table
	site simnet.SiteID
	held []func()
}

func (d *delayTransport) UseSymbols(tab *symtab.Table) {
	d.id = tab.MustLookup(d.sym)
	d.Transport.UseSymbols(tab)
}

func (d *delayTransport) Register(site simnet.SiteID, h func(n actor.Net, payload any)) {
	if site != d.site {
		d.Transport.Register(site, h)
		return
	}
	d.Transport.Register(site, func(n actor.Net, p any) {
		if m, ok := p.(actor.AnnounceMsg); ok && m.ID == d.id {
			d.held = append(d.held, func() { h(n, p) })
			return
		}
		h(n, p)
	})
}

func (d *delayTransport) WaitIdle(timeout time.Duration) bool {
	for len(d.held) > 0 {
		deliver := d.held[0]
		d.held = d.held[1:]
		deliver()
	}
	return d.Transport.WaitIdle(timeout)
}

// TestPipelinedCloseoutWaitsForSettle: travel, no events, Finish on a
// pipelined drive.  The closeout complements s_book first; ~s_book
// parks on ~s_buy.  Then ~s_buy is decided, and its announcement to
// the book site is delayed past that decision.  Escalating s_book
// before one settle would overtake the announcement that fires the
// parked ~s_book; the closeout must settle first and reach the serial
// oracle's outcome.
func TestPipelinedCloseoutWaitsForSettle(t *testing.T) {
	sp := loadSpec(t, "../../testdata/travel.wf")
	oracle := externalDrive(t, sp, 1, nil)
	tr := &delayTransport{Transport: arun.NewSimTransport(1, nil), sym: mustSym(t, "~s_buy"), site: "book"}
	out := externalDriveOn(t, sp, tr, true, nil)
	if out.Fingerprint() != oracle.Fingerprint() {
		t.Fatalf("closeout overtook the delayed announcement:\n oracle %s\n got    %s",
			oracle.Fingerprint(), out.Fingerprint())
	}
}

// TestExternalUnknownEvent: attempting a symbol outside the plan's
// universe fails cleanly instead of wedging the transport.
func TestExternalUnknownEvent(t *testing.T) {
	sp, err := spec.ParseString("dep ~a + b\nevent a site=s1\nevent b site=s1\n")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := arun.NewPlan(sp, arun.PlanOptions{Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := arun.NewSimTransport(1, nil)
	defer tr.Close()
	r, err := plan.NewRunner(tr, arun.RunnerOptions{IdleTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Attempt(mustSym(t, "zz"), false); err == nil {
		t.Fatal("unknown event accepted")
	}
	// The runner still works afterwards.
	if _, _, err := r.Attempt(mustSym(t, "b"), false); err != nil {
		t.Fatalf("valid attempt after bad one: %v", err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestExternalFinishAlone: Finish on an instance that saw no external
// events still resolves every base (all-complement outcome or forced
// obligations), so drained instances always settle.
func TestExternalFinishAlone(t *testing.T) {
	sp := loadSpec(t, "../../testdata/mutex.wf")
	plan, err := arun.NewPlan(sp, arun.PlanOptions{Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := arun.NewSimTransport(3, nil)
	defer tr.Close()
	r, err := plan.NewRunner(tr, arun.RunnerOptions{IdleTimeout: 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Unresolved) > 0 {
		t.Errorf("Finish left events unresolved: %v", out.Unresolved)
	}
	if !out.Satisfied {
		t.Errorf("all-closeout outcome unsatisfied: %s", out.Fingerprint())
	}
}
