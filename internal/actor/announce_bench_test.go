package actor

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gprog"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// benchNet is a do-nothing transport: announcement handling in steady
// state sends no messages, so the stub only has to satisfy Net.
type benchNet struct{ occ int64 }

func (n *benchNet) Send(from, to simnet.SiteID, payload any) {}
func (n *benchNet) Now() simnet.Time                         { return 0 }
func (n *benchNet) NextOccurrence() int64                    { n.occ++; return n.occ }
func (n *benchNet) Clock() int64                             { return n.occ }

// announceActor builds a lone actor for event b whose guard watches a,
// so an announcement of a exercises the assimilation path (observe,
// settle, re-decide scan) without firing anything.  prog selects the
// compiled-guard-program delivery mode.
func announceActor(tb testing.TB) (*Actor, AnnounceMsg) {
	tb.Helper()
	w, err := core.ParseWorkflow("~b + a . b")
	if err != nil {
		tb.Fatal(err)
	}
	c, err := core.Compile(w)
	if err != nil {
		tb.Fatal(err)
	}
	dir := NewDirectory()
	dir.Place(sym("a"), "sa")
	dir.Place(sym("b"), "sb")
	b := sym("b")
	a := newActor(b, "sb", dir, &Hooks{}, gprog.GuardInput{Guard: c.GuardOf(b)},
		gprog.GuardInput{Guard: c.GuardOf(b.Complement())})
	return a, AnnounceMsg{ID: dir.Table().MustLookup(sym("a")), At: 1}
}

// TestAnnounceDisabledTracerZeroAllocDelta is the observability cost
// contract: an attached-but-disabled tracer must add zero allocations
// per announcement over running with no tracer at all.  The disabled
// path is a single atomic load behind Scope.On.
func TestAnnounceDisabledTracerZeroAllocDelta(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	bare, msg := announceActor(t)
	net := &benchNet{}
	base := testing.AllocsPerRun(2000, func() { bare.onAnnounce(net, msg) })

	traced, msg2 := announceActor(t)
	traced.Trace = obs.NewTracer(64).Scope("sb", 0) // tracer left disabled
	withTracer := testing.AllocsPerRun(2000, func() { traced.onAnnounce(net, msg2) })

	if withTracer != base {
		t.Fatalf("disabled tracer costs allocations: %.2f allocs/op with tracer, %.2f without",
			withTracer, base)
	}
}

// TestAnnounceDeliverZeroAlloc is the alloc-regression gate that make
// benchsmoke runs: announcement delivery — set a bit, recheck the
// affected guards by mask intersection — must stay allocation-free in
// steady state.
func TestAnnounceDeliverZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	a, msg := announceActor(t)
	net := &benchNet{}
	a.onAnnounce(net, msg) // settle the first-delivery transitions
	if avg := testing.AllocsPerRun(2000, func() { a.onAnnounce(net, msg) }); avg != 0 {
		t.Fatalf("delivery allocates %v times per announcement, want 0", avg)
	}
}

// BenchmarkAnnounceDeliver measures the announcement delivery hot
// path; run with -benchmem to see the allocation guard (0 allocs/op,
// gated by TestAnnounceDeliverZeroAlloc).
func BenchmarkAnnounceDeliver(b *testing.B) {
	a, msg := announceActor(b)
	net := &benchNet{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.onAnnounce(net, msg)
	}
}

func BenchmarkAnnounceNoTracer(b *testing.B) {
	a, msg := announceActor(b)
	net := &benchNet{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.onAnnounce(net, msg)
	}
}

func BenchmarkAnnounceDisabledTracer(b *testing.B) {
	a, msg := announceActor(b)
	a.Trace = obs.NewTracer(64).Scope("sb", 0)
	net := &benchNet{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.onAnnounce(net, msg)
	}
}
