package actor

import (
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/symtab"
)

// wireGoldenPath pins WireVersion 1's bytes: one line per message kind
// and corner, "label hex", over goldenTable.
const wireGoldenPath = "testdata/wire-v1.golden"

// goldenTable holds the events the golden payloads name: two plain
// events and one with parameters, so both symbol layouts are pinned.
func goldenTable() *symtab.Table {
	tab := symtab.New()
	tab.Add(algebra.Sym("e"))
	tab.Add(algebra.Sym("f"))
	tab.Add(algebra.SymP("acct", algebra.Var("x"), algebra.Const("7")))
	return tab
}

// goldenIDs are e, ~f and acct(?x,7) in goldenTable.
func goldenIDs() (e, f, p symtab.ID) {
	tab := goldenTable()
	return tab.MustLookup(algebra.Sym("e")), tab.MustLookup(algebra.Sym("f").Complement()),
		tab.MustLookup(algebra.SymP("acct", algebra.Var("x"), algebra.Const("7")))
}

type goldenPayload struct {
	label string
	msg   any
}

func goldenPayloads() []goldenPayload {
	e, f, p := goldenIDs()
	return []goldenPayload{
		{"attempt", AttemptMsg{ID: e}},
		{"attempt-forced", AttemptMsg{ID: f, Forced: true, ReplyTo: "site-9"}},
		{"announce", AnnounceMsg{ID: p, At: -3}},
		{"announce-late", AnnounceMsg{ID: e, At: 1<<62 + 5}},
		{"inquire", InquireMsg{Target: e, Requester: f, ReplyTo: "s0", Round: 42,
			Hyp: []symtab.ID{e, f, p}}},
		{"inquire-bare", InquireMsg{Target: p, Requester: e}},
		{"reply-occurred", InquireReplyMsg{Target: e, Requester: f, Round: 7, Occurred: true, At: 12}},
		{"reply-impossible", InquireReplyMsg{Target: f, Requester: e, Round: -1, Impossible: true}},
		{"reply-promised", InquireReplyMsg{Target: e, Requester: p, Held: true, Promised: true,
			Conds: []symtab.ID{f}, AfterReq: true}},
		{"nudge", NudgeMsg{ID: f}},
		{"release-promise", ReleaseMsg{Target: e, Requester: f, Round: 3, Promise: true, Fired: true}},
		{"release-hold", ReleaseMsg{Target: p, Requester: e}},
		{"decision-accepted", DecisionMsg{ID: e, Accepted: true, At: 9, AttemptedAt: 100, DecidedAt: 250}},
		{"decision-rejected", DecisionMsg{ID: f, Reason: "guard reduced to 0"}},
		{"instanced", Instanced{Inst: 1<<32 - 1, Msg: AnnounceMsg{ID: p, At: 77}}},
	}
}

// TestWireGolden: every message kind encodes to the checked-in bytes.
// The file is never regenerated by a change that keeps WireVersion.
func TestWireGolden(t *testing.T) {
	want, err := os.ReadFile(wireGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	tab := goldenTable()
	var b strings.Builder
	for _, g := range goldenPayloads() {
		enc, err := AppendPayload(tab, nil, g.msg)
		if err != nil {
			t.Fatalf("%s: %v", g.label, err)
		}
		b.WriteString(g.label + " " + hex.EncodeToString(enc) + "\n")
	}
	if got := b.String(); got != string(want) {
		t.Errorf("wire bytes changed:\n got\n%s want\n%s", got, want)
	}
}

// TestMessagesCarryNoNames: no exported message type of the protocol
// holds a symbol name.  Messages name events by plan id; names exist
// only where the codec, a log line or a trace record turns ids into
// text.
func TestMessagesCarryNoNames(t *testing.T) {
	symType := reflect.TypeOf(algebra.Symbol{})
	for _, g := range goldenPayloads() {
		typ := reflect.TypeOf(g.msg)
		for i := 0; i < typ.NumField(); i++ {
			ft := typ.Field(i).Type
			if ft == symType || (ft.Kind() == reflect.Slice && ft.Elem() == symType) {
				t.Errorf("%s.%s holds %s", typ.Name(), typ.Field(i).Name, ft)
			}
		}
	}
}
