package actor

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/symtab"
)

// samplePayloads covers every message type, polarity, parameters, and
// the empty/maximal corners of each field.
func samplePayloads() []any {
	e := algebra.Sym("e")
	f := algebra.Sym("f").Complement()
	p := algebra.SymP("acct", algebra.Var("x"), algebra.Const("7"))
	return []any{
		AttemptMsg{Sym: e},
		AttemptMsg{Sym: f, Forced: true, ReplyTo: "site-9"},
		AnnounceMsg{Sym: p, At: -3},
		AnnounceMsg{Sym: e, At: 1<<62 + 5},
		InquireMsg{Target: e, Requester: f, ReplyTo: "s0", Round: 42,
			Hyp: []algebra.Symbol{e, f, p}},
		InquireMsg{Target: p, Requester: e},
		InquireReplyMsg{Target: e, Requester: f, Round: 7, Occurred: true, At: 12},
		InquireReplyMsg{Target: f, Requester: e, Round: -1, Impossible: true},
		InquireReplyMsg{Target: e, Requester: p, Held: true, Promised: true,
			Conds: []algebra.Symbol{f}, AfterReq: true},
		NudgeMsg{Sym: f},
		ReleaseMsg{Target: e, Requester: f, Round: 3, Promise: true, Fired: true},
		ReleaseMsg{Target: p, Requester: e},
		DecisionMsg{Sym: e, Accepted: true, At: 9, AttemptedAt: 100, DecidedAt: 250},
		DecisionMsg{Sym: f, Reason: "guard reduced to 0"},
		Instanced{Inst: 0, Msg: AttemptMsg{Sym: e}},
		Instanced{Inst: 1<<32 - 1, Msg: AnnounceMsg{Sym: p, At: 77}},
	}
}

func TestWireCodecRejectsNestedInstanced(t *testing.T) {
	inner := Instanced{Inst: 1, Msg: NudgeMsg{Sym: algebra.Sym("e")}}
	if _, err := AppendPayload(nil, Instanced{Inst: 2, Msg: inner}); err == nil {
		t.Fatal("encoding a nested instanced envelope must error")
	}
	// Hand-crafted nested bytes must be rejected by the decoder too.
	enc, err := AppendPayload(nil, inner)
	if err != nil {
		t.Fatal(err)
	}
	nested := append([]byte{WireVersion, kindInstanced, 2}, enc...)
	if _, err := DecodePayload(nested); err == nil {
		t.Fatal("decoding a nested instanced envelope must error")
	}
}

func TestWireCodecRoundTrip(t *testing.T) {
	for _, payload := range samplePayloads() {
		enc, err := AppendPayload(nil, payload)
		if err != nil {
			t.Fatalf("encode %#v: %v", payload, err)
		}
		dec, err := DecodePayload(enc)
		if err != nil {
			t.Fatalf("decode %#v: %v", payload, err)
		}
		if !reflect.DeepEqual(payload, dec) {
			t.Errorf("roundtrip mismatch:\n sent %#v\n got  %#v", payload, dec)
		}
	}
}

func TestWireCodecRejectsUnknownPayload(t *testing.T) {
	if _, err := AppendPayload(nil, struct{ X int }{1}); err == nil {
		t.Fatal("encoding a foreign type must error")
	}
}

func TestWireCodecRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":            nil,
		"version only":     {WireVersion},
		"bad version":      {99, 1},
		"unknown kind":     {WireVersion, 200},
		"truncated symbol": {WireVersion, 1, 0, 5, 'a'},
		"huge string":      {WireVersion, 6, 0, 0xff, 0xff, 0xff, 0x7f},
	}
	for name, data := range cases {
		if _, err := DecodePayload(data); err == nil {
			t.Errorf("%s: decode %v must error", name, data)
		}
	}
	enc, err := AppendPayload(nil, NudgeMsg{Sym: algebra.Sym("e")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePayload(append(enc, 0)); err == nil {
		t.Error("trailing bytes must error")
	}
}

// FuzzDecodePayload guarantees the decoder is total (no panics, no
// unbounded allocation) and canonical: whatever decodes successfully
// must re-encode and decode to the same message.
func FuzzDecodePayload(f *testing.F) {
	for _, payload := range samplePayloads() {
		enc, err := AppendPayload(nil, payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{WireVersion, kindInquire})
	f.Add([]byte{WireVersion, kindDecision, 0, 1, 'e', 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodePayload(data)
		if err != nil {
			return
		}
		enc, err := AppendPayload(nil, msg)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", msg, err)
		}
		again, err := DecodePayload(enc)
		if err != nil {
			t.Fatalf("re-encoded %#v does not decode: %v", msg, err)
		}
		if !reflect.DeepEqual(msg, again) {
			t.Fatalf("codec not canonical:\n first  %#v\n second %#v", msg, again)
		}
		// Against a plan's table, a payload decodes to an error or to
		// ids that name exactly the decoded symbols, and every other
		// field decodes as it does without the table.
		tab := fuzzTable()
		if resolved, err := DecodePayloadOn(tab, data); err == nil {
			checkIDs(t, tab, resolved)
			if got := withoutIDs(resolved); !reflect.DeepEqual(got, msg) {
				t.Fatalf("table path decodes %#v, table-less path %#v", got, msg)
			}
		}
	})
}

// withoutIDs returns msg with the symbol ids a table sets cleared.
func withoutIDs(msg any) any {
	switch m := msg.(type) {
	case AttemptMsg:
		m.ID = symtab.None
		return m
	case AnnounceMsg:
		m.ID = symtab.None
		return m
	case DecisionMsg:
		m.ID = symtab.None
		return m
	case Instanced:
		m.Msg = withoutIDs(m.Msg)
		return m
	}
	return msg
}

// TestDecodeTablePathEquivalent: decoding against a table — where a
// parameterless symbol is the table's own Symbol — yields every field the table-less decoder yields, only
// with ids set, for every payload shape, both polarities, parameterized
// symbols, and names that resemble a complement's key.  A name the plan
// does not hold is still a decode error.
func TestDecodeTablePathEquivalent(t *testing.T) {
	tab := fuzzTable()
	e, f := algebra.Sym("e"), algebra.Sym("f")
	tilde := algebra.Symbol{Name: "~e"} // the text of ē's key, as a plain name
	payloads := append(samplePayloads(),
		AttemptMsg{Sym: e.Complement(), ReplyTo: "s1"},
		AttemptMsg{Sym: f, ReplyTo: "s1"},
		AttemptMsg{Sym: tilde, ReplyTo: ""},
		AnnounceMsg{Sym: tilde, At: 4},
		AnnounceMsg{Sym: algebra.SymP("e", algebra.Const("1"))},
		InquireMsg{Target: e, Requester: f.Complement(), ReplyTo: "s2",
			Hyp: []algebra.Symbol{tilde, e.Complement()}},
		DecisionMsg{Sym: f.Complement(), Accepted: true, Reason: "r"},
		Instanced{Inst: 3, Msg: InquireReplyMsg{Target: f, Requester: e, Conds: []algebra.Symbol{f}}},
	)
	for _, payload := range payloads {
		enc, err := AppendPayload(nil, payload)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := DecodePayload(enc)
		if err != nil {
			t.Fatalf("%v: %v", payload, err)
		}
		resolved, err := DecodePayloadOn(tab, enc)
		if err != nil {
			if !strings.Contains(err.Error(), "not in the plan") {
				t.Errorf("%v: table path: %v", payload, err)
			}
			continue
		}
		checkIDs(t, tab, resolved)
		if got := withoutIDs(resolved); !reflect.DeepEqual(got, plain) {
			t.Errorf("table path decodes %#v, table-less path %#v", got, plain)
		}
	}
	enc, err := AppendPayload(nil, AnnounceMsg{Sym: algebra.Sym("g"), At: 1})
	if err != nil {
		t.Fatal(err)
	}
	if msg, err := DecodePayloadOn(tab, enc); err == nil || !strings.Contains(err.Error(), "not in the plan") {
		t.Errorf("announcement of g, absent from the plan: %v, %v; want a not-in-the-plan error", msg, err)
	}
}

// fuzzTable is a plan table holding two of samplePayloads' three
// events, so the corpus exercises both resolution and refusal.
func fuzzTable() *symtab.Table {
	tab := symtab.New()
	tab.Add(algebra.Sym("e"))
	tab.Add(algebra.Sym("f"))
	return tab
}

// checkIDs fails unless every id-carrying message names its symbol's
// id in tab.
func checkIDs(t *testing.T, tab *symtab.Table, msg any) {
	t.Helper()
	var sym algebra.Symbol
	var id symtab.ID
	switch m := msg.(type) {
	case AttemptMsg:
		sym, id = m.Sym, m.ID
	case AnnounceMsg:
		sym, id = m.Sym, m.ID
	case DecisionMsg:
		sym, id = m.Sym, m.ID
	case Instanced:
		checkIDs(t, tab, m.Msg)
		return
	default:
		return
	}
	if want, ok := tab.Lookup(sym); !ok || id != want {
		t.Fatalf("%#v resolved to id %d, want the table's id for %s", msg, id, sym)
	}
}

// TestDecodeResolvesIDs: decoding against a plan's table sets the id
// of every attempt, announcement and decision, leaves the bytes'
// round trip identical, and refuses a name the plan does not hold
// instead of resolving it to a wrong id.
func TestDecodeResolvesIDs(t *testing.T) {
	tab := fuzzTable()
	for _, payload := range samplePayloads() {
		enc, err := AppendPayload(nil, payload)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := DecodePayloadOn(tab, enc)
		names := payload
		if in, ok := payload.(Instanced); ok {
			names = in.Msg
		}
		var sym algebra.Symbol
		carries := true
		switch m := names.(type) {
		case AttemptMsg:
			sym = m.Sym
		case AnnounceMsg:
			sym = m.Sym
		case DecisionMsg:
			sym = m.Sym
		default:
			carries = false
		}
		if _, known := tab.Lookup(sym); carries && !known {
			if err == nil || !strings.Contains(err.Error(), "not in the plan") {
				t.Errorf("%v: decoded against a table without %s: %v, %v; want a not-in-the-plan error", payload, sym, msg, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%v: %v", payload, err)
		}
		checkIDs(t, tab, msg)
		again, err := AppendPayload(nil, msg)
		if err != nil || string(again) != string(enc) {
			t.Errorf("%v: resolved payload re-encodes to %x, want %x (%v)", payload, again, enc, err)
		}
	}
}
