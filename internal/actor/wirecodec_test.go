package actor

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/symtab"
)

// samplePayloads covers every message type, polarity, parameters, and
// the empty/maximal corners of each field, over goldenTable: the
// golden payloads plus an envelope with instance 0.
func samplePayloads() []any {
	var out []any
	for _, g := range goldenPayloads() {
		out = append(out, g.msg)
	}
	e, _, _ := goldenIDs()
	return append(out, Instanced{Inst: 0, Msg: AttemptMsg{ID: e}})
}

func TestWireCodecRejectsNestedInstanced(t *testing.T) {
	tab := goldenTable()
	e, _, _ := goldenIDs()
	inner := Instanced{Inst: 1, Msg: NudgeMsg{ID: e}}
	if _, err := AppendPayload(tab, nil, Instanced{Inst: 2, Msg: inner}); err == nil {
		t.Fatal("encoding a nested instanced envelope must error")
	}
	// Hand-crafted nested bytes must be rejected by the decoder too.
	enc, err := AppendPayload(tab, nil, inner)
	if err != nil {
		t.Fatal(err)
	}
	nested := append([]byte{WireVersion, kindInstanced, 2}, enc...)
	if _, err := DecodePayloadOn(tab, nested); err == nil {
		t.Fatal("decoding a nested instanced envelope must error")
	}
}

func TestWireCodecRoundTrip(t *testing.T) {
	tab := goldenTable()
	for _, payload := range samplePayloads() {
		enc, err := AppendPayload(tab, nil, payload)
		if err != nil {
			t.Fatalf("encode %#v: %v", payload, err)
		}
		dec, err := DecodePayloadOn(tab, enc)
		if err != nil {
			t.Fatalf("decode %#v: %v", payload, err)
		}
		if !reflect.DeepEqual(payload, dec) {
			t.Errorf("roundtrip mismatch:\n sent %#v\n got  %#v", payload, dec)
		}
	}
}

// TestWireCodecRejectsUnknownPayload: the encoder refuses foreign
// types, ids its table does not hold, and a missing table.
func TestWireCodecRejectsUnknownPayload(t *testing.T) {
	tab := goldenTable()
	bad := map[string]any{
		"foreign type":  struct{ X int }{1},
		"id None":       AttemptMsg{ID: symtab.None},
		"null event":    AnnounceMsg{ID: 1},
		"past table":    NudgeMsg{ID: symtab.ID(tab.Len())},
		"negative hyp":  InquireMsg{Target: 2, Requester: 2, Hyp: []symtab.ID{-4}},
		"bad envelope":  Instanced{Inst: 1, Msg: DecisionMsg{ID: symtab.ID(tab.Len() + 1)}},
		"bad condition": InquireReplyMsg{Target: 2, Requester: 4, Conds: []symtab.ID{2, 99}},
	}
	for name, payload := range bad {
		if _, err := AppendPayload(tab, nil, payload); err == nil {
			t.Errorf("%s: encoding %#v must error", name, payload)
		}
	}
	if _, err := AppendPayload(nil, nil, AttemptMsg{ID: 2}); err == nil {
		t.Error("encoding without a table must error")
	}
}

func TestWireCodecRejectsMalformed(t *testing.T) {
	tab := goldenTable()
	cases := map[string][]byte{
		"empty":            nil,
		"version only":     {WireVersion},
		"bad version":      {99, 1},
		"unknown kind":     {WireVersion, 200},
		"truncated symbol": {WireVersion, 1, 0, 5, 'a'},
		"huge string":      {WireVersion, 6, 0, 0xff, 0xff, 0xff, 0x7f},
	}
	for name, data := range cases {
		if _, err := DecodePayloadOn(tab, data); err == nil {
			t.Errorf("%s: decode %v must error", name, data)
		}
	}
	e, _, _ := goldenIDs()
	enc, err := AppendPayload(tab, nil, NudgeMsg{ID: e})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePayloadOn(tab, append(enc, 0)); err == nil {
		t.Error("trailing bytes must error")
	}
	if _, err := DecodePayloadOn(nil, enc); err == nil {
		t.Error("decoding without a table must error")
	}
}

// FuzzDecodePayload guarantees the decoder is total (no panics, no
// unbounded allocation) and canonical over a plan's table: whatever
// decodes successfully must re-encode and decode to the same message.
func FuzzDecodePayload(f *testing.F) {
	tab := goldenTable()
	for _, payload := range samplePayloads() {
		enc, err := AppendPayload(tab, nil, payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{WireVersion, kindInquire})
	f.Add([]byte{WireVersion, kindDecision, 0, 1, 'e', 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodePayloadOn(tab, data)
		if err != nil {
			return
		}
		enc, err := AppendPayload(tab, nil, msg)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", msg, err)
		}
		again, err := DecodePayloadOn(tab, enc)
		if err != nil {
			t.Fatalf("re-encoded %#v does not decode: %v", msg, err)
		}
		if !reflect.DeepEqual(msg, again) {
			t.Fatalf("codec not canonical:\n first  %#v\n second %#v", msg, again)
		}
	})
}

// TestDecodeResolvesIDs: decoding against the plan's table gives every
// symbol of every message kind back its id, and the decoded message
// re-encodes to the same bytes.
func TestDecodeResolvesIDs(t *testing.T) {
	tab := goldenTable()
	for _, g := range goldenPayloads() {
		enc, err := AppendPayload(tab, nil, g.msg)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := DecodePayloadOn(tab, enc)
		if err != nil {
			t.Fatalf("%s: %v", g.label, err)
		}
		if !reflect.DeepEqual(msg, g.msg) {
			t.Errorf("%s: decoded %#v, want %#v", g.label, msg, g.msg)
		}
		again, err := AppendPayload(tab, nil, msg)
		if err != nil || string(again) != string(enc) {
			t.Errorf("%s: decoded payload re-encodes to %x, want %x (%v)", g.label, again, enc, err)
		}
	}
}

// TestDecodeRefusesUnknownNames: a name the receiving plan lacks is a
// decode error in every position of every message kind, never a
// message that reaches an actor.  Each row is encoded against a table
// that holds zz and acct(?x,7) and decoded against one that holds
// neither (it has acct(?x,8) instead).
func TestDecodeRefusesUnknownNames(t *testing.T) {
	sender := symtab.New()
	e := sender.Add(algebra.Sym("e"))
	f := sender.Add(algebra.Sym("f"))
	zz := sender.Add(algebra.Sym("zz"))
	acct := sender.Add(algebra.SymP("acct", algebra.Var("x"), algebra.Const("7")))
	receiver := symtab.New()
	receiver.Add(algebra.Sym("e"))
	receiver.Add(algebra.Sym("f"))
	receiver.Add(algebra.SymP("acct", algebra.Var("x"), algebra.Const("8")))

	tests := []struct {
		name string
		msg  any
	}{
		{name: "attempt", msg: AttemptMsg{ID: zz}},
		{name: "announce", msg: AnnounceMsg{ID: zz.Complement(), At: 1}},
		{name: "inquire target", msg: InquireMsg{Target: zz, Requester: e, Hyp: []symtab.ID{e}}},
		{name: "inquire requester", msg: InquireMsg{Target: e, Requester: zz}},
		{name: "inquire hypothesis", msg: InquireMsg{Target: e, Requester: f, Hyp: []symtab.ID{f, zz}}},
		{name: "reply target", msg: InquireReplyMsg{Target: zz, Requester: e, Held: true}},
		{name: "reply requester", msg: InquireReplyMsg{Target: e, Requester: zz, Occurred: true}},
		{name: "reply conditions", msg: InquireReplyMsg{Target: e, Requester: f, Promised: true, Conds: []symtab.ID{zz}}},
		{name: "nudge", msg: NudgeMsg{ID: zz}},
		{name: "release target", msg: ReleaseMsg{Target: zz, Requester: e}},
		{name: "release requester", msg: ReleaseMsg{Target: e, Requester: zz, Promise: true}},
		{name: "decision", msg: DecisionMsg{ID: zz, Accepted: true}},
		{name: "instanced", msg: Instanced{Inst: 4, Msg: InquireMsg{Target: zz, Requester: e}}},
		{name: "other parameters", msg: AnnounceMsg{ID: acct, At: 2}},
	}
	for _, tt := range tests {
		enc, err := AppendPayload(sender, nil, tt.msg)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if _, err := DecodePayloadOn(sender, enc); err != nil {
			t.Fatalf("%s: the sender's own table must decode it: %v", tt.name, err)
		}
		msg, err := DecodePayloadOn(receiver, enc)
		if err == nil || !strings.Contains(err.Error(), "not in the plan") {
			t.Errorf("%s: decoded against a plan without the name: %#v, %v; want a not-in-the-plan error", tt.name, msg, err)
		}
	}
}
