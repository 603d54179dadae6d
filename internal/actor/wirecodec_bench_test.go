package actor

import (
	"testing"

	"repro/internal/symtab"
)

// steadyStatePayloads are the messages the hot path actually sends:
// the announcement fan-out and the inquiry round trip dominate wire
// traffic in every experiment.  They name goldenTable's ids.
func steadyStatePayloads() []any {
	e, f, _ := goldenIDs()
	return []any{
		AnnounceMsg{ID: e, At: 42},
		AttemptMsg{ID: f, ReplyTo: "ctl"},
		InquireMsg{Target: e, Requester: f, ReplyTo: "s0", Round: 1,
			Hyp: []symtab.ID{f}},
		InquireReplyMsg{Target: e, Requester: f, Round: 1, Occurred: true, At: 42},
		DecisionMsg{ID: e, Accepted: true, At: 42, AttemptedAt: 10, DecidedAt: 20},
		Instanced{Inst: 117, Msg: AnnounceMsg{ID: e, At: 42}},
	}
}

// TestEncodeZeroAlloc locks in the allocation-free steady state: with
// a pooled buffer, encoding a protocol message performs zero heap
// allocations per operation.
func TestEncodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates inside sync.Pool")
	}
	payloads, tab := steadyStatePayloads(), goldenTable()
	// Warm the pool so the measurement never hits the pool's New.
	warm := GetEncodeBuf()
	PutEncodeBuf(warm)
	avg := testing.AllocsPerRun(200, func() {
		for _, p := range payloads {
			bp := GetEncodeBuf()
			enc, err := AppendPayload(tab, (*bp)[:0], p)
			if err != nil {
				t.Fatal(err)
			}
			*bp = enc
			PutEncodeBuf(bp)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state encode allocates %v times per round, want 0", avg)
	}
}

// BenchmarkAppendPayload measures the pooled encode path; run with
// -benchmem to see the allocation regression guard (0 allocs/op).
func BenchmarkAppendPayload(b *testing.B) {
	payloads, tab := steadyStatePayloads(), goldenTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := payloads[i%len(payloads)]
		bp := GetEncodeBuf()
		enc, err := AppendPayload(tab, (*bp)[:0], p)
		if err != nil {
			b.Fatal(err)
		}
		*bp = enc
		PutEncodeBuf(bp)
	}
}

// BenchmarkDecodePayload measures the decode path for the same
// steady-state messages.
func BenchmarkDecodePayload(b *testing.B) {
	tab := goldenTable()
	var encoded [][]byte
	for _, p := range steadyStatePayloads() {
		enc, err := AppendPayload(tab, nil, p)
		if err != nil {
			b.Fatal(err)
		}
		encoded = append(encoded, enc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodePayloadOn(tab, encoded[i%len(encoded)]); err != nil {
			b.Fatal(err)
		}
	}
}
