package actor

import (
	"reflect"
	"testing"

	"repro/internal/gprog"
	"repro/internal/simnet"
	"repro/internal/symtab"
	"repro/internal/temporal"
)

// recNet is a transport stub that records every send.
type recNet struct {
	occ  int64
	sent []any
}

func (n *recNet) Send(_, _ simnet.SiteID, payload any) { n.sent = append(n.sent, payload) }
func (n *recNet) Now() simnet.Time                     { return 0 }
func (n *recNet) NextOccurrence() int64                { n.occ++; return n.occ }
func (n *recNet) Clock() int64                         { return n.occ }

// roundTripActor builds a lone triggerable actor for x with guard ◇r,
// so an inquiry from r is held and answered with a promise.
func roundTripActor() *Actor {
	dir := NewDirectory()
	for _, name := range []string{"x", "r", "q"} {
		dir.Place(sym(name), simnet.SiteID("s"+name))
	}
	a := newActor(sym("x"), "sx", dir, nil,
		gprog.GuardInput{Guard: temporal.Lit(temporal.Eventually(sym("r")))},
		gprog.GuardInput{Guard: temporal.TrueF()})
	a.SetTriggerable(a.sid(sym("x")))
	return a
}

// TestExportRestoreRoundTrip drives an actor through an inquiry, a
// hold and a promise to a settled fire, exports it, restores the
// export into a fresh actor, and checks that both actors export and
// digest identically.  Every protocol map starts nil and is allocated
// on its first write, so the test also writes again after fire and
// settleClaims have reset the maps.
func TestExportRestoreRoundTrip(t *testing.T) {
	a := roundTripActor()
	x, nx, r, q := a.sid(sym("x")), a.sid(sym("~x")), a.sid(sym("r")), a.sid(sym("q"))
	n := &recNet{}

	a.Deliver(n, InquireMsg{Target: x, Requester: r, ReplyTo: "sr", Round: 1, Hyp: []symtab.ID{r}})
	p := a.pol(x)
	if !p.pastInquirers["sr"] || len(p.holdsOnMe) != 1 || len(p.promisesBy) != 1 {
		t.Fatalf("inquiry must record the inquirer, a hold and a promise: %s", a.StateDigest())
	}
	if _, err := a.Export(); err == nil {
		t.Fatal("Export must refuse an actor with an outstanding hold and promise")
	}

	// The hold is released, then r's announcement makes the promise due:
	// x self-triggers and fires, which discharges the promise.
	a.Deliver(n, ReleaseMsg{Target: x, Requester: r, Round: 1})
	a.Deliver(n, AnnounceMsg{ID: r, At: 1})
	if _, ok := a.Occurred(sym("x")); !ok {
		t.Fatalf("x must fire once its promise is due: %s", a.StateDigest())
	}
	if p.promisesBy != nil || p.promiseClaims != nil || a.pol(nx).promiseClaims != nil {
		t.Fatal("fire and settleClaims must reset the promise maps to nil")
	}

	st, err := a.Export()
	if err != nil {
		t.Fatal(err)
	}
	b := roundTripActor()
	if err := b.Restore(st); err != nil {
		t.Fatal(err)
	}
	back, err := b.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, st) {
		t.Fatalf("restored export differs:\n got %+v\nwant %+v", back, st)
	}
	if got, want := b.StateDigest(), a.StateDigest(); got != want {
		t.Fatalf("restored digest differs:\n got %s\nwant %s", got, want)
	}

	// Writes after the resets.  A promised reply for the never-attempted
	// complement, whose claims settleClaims emptied, records the claim;
	// a new inquiry about the fired x records its inquirer and is
	// answered from the occurrence, with no hold and no new promise.
	for _, act := range []*Actor{a, b} {
		act.Deliver(n, InquireReplyMsg{Target: q, Requester: nx, Promised: true, Conds: []symtab.ID{nx}})
		if _, ok := act.pol(nx).promiseClaims[q]; !ok {
			t.Fatalf("claim after reset not recorded: %s", act.StateDigest())
		}
		act.Deliver(n, InquireMsg{Target: x, Requester: q, ReplyTo: "sq", Round: 2})
		px := act.pol(x)
		if !px.pastInquirers["sq"] || len(px.holdsOnMe) != 0 || px.promisesBy != nil {
			t.Fatalf("inquiry after fire: %s", act.StateDigest())
		}
		if rep, ok := n.sent[len(n.sent)-1].(InquireReplyMsg); !ok || !rep.Occurred {
			t.Fatalf("inquiry after fire must be answered with the occurrence, got %v", n.sent[len(n.sent)-1])
		}
	}
}
