package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestTracerDisabledByDefault(t *testing.T) {
	tr := NewTracer(8)
	sc := tr.Scope("s0", 0)
	sc.Emit(Record{Kind: KindEval})
	if sc.On() {
		t.Fatal("scope reports on before Enable")
	}
	if got := len(tr.Records()); got != 0 {
		t.Fatalf("disabled tracer captured %d records", got)
	}
}

func TestNilScopeIsSafe(t *testing.T) {
	var tr *Tracer
	sc := tr.Scope("s0", 0)
	if sc != nil {
		t.Fatal("nil tracer produced a non-nil scope")
	}
	if sc.On() {
		t.Fatal("nil scope reports on")
	}
	sc.Emit(Record{Kind: KindFire}) // must not panic
}

func TestScopeStampsSiteAndInstance(t *testing.T) {
	tr := NewTracer(8)
	tr.Enable(true)
	tr.Scope("east", 7).Emit(Record{Kind: KindFire, Sym: "e"})
	recs := tr.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Site != "east" || recs[0].Inst != 7 {
		t.Fatalf("stamp = %s/%d, want east/7", recs[0].Site, recs[0].Inst)
	}
}

func TestRingKeepsNewest(t *testing.T) {
	tr := NewTracer(3)
	tr.Enable(false) // ring mode
	sc := tr.Scope("s", 0)
	for i := 0; i < 5; i++ {
		sc.Emit(Record{Kind: KindEval, Lamport: int64(i)})
	}
	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("ring kept %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if want := int64(i + 2); r.Lamport != want {
			t.Fatalf("ring[%d].Lamport = %d, want %d (oldest surviving first)", i, r.Lamport, want)
		}
	}
	if got := tr.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
}

func TestFullCaptureKeepsEverything(t *testing.T) {
	tr := NewTracer(2)
	tr.Enable(true) // full capture overrides the ring bound
	sc := tr.Scope("s", 0)
	for i := 0; i < 10; i++ {
		sc.Emit(Record{Kind: KindEval})
	}
	if got := len(tr.Records()); got != 10 {
		t.Fatalf("full capture kept %d records, want 10", got)
	}
	if tr.Dropped() != 0 {
		t.Fatal("full capture dropped records")
	}
}

func TestSeqMonotonePerTracer(t *testing.T) {
	tr := NewTracer(16)
	tr.Enable(true)
	a, b := tr.Scope("a", 0), tr.Scope("b", 0)
	a.Emit(Record{Kind: KindEval})
	b.Emit(Record{Kind: KindEval})
	a.Emit(Record{Kind: KindFire})
	recs := tr.Records()
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("seq not strictly increasing: %d then %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
}

func TestResetRestartsCounters(t *testing.T) {
	tr := NewTracer(8)
	tr.Enable(true)
	tr.Scope("s", 0).Emit(Record{Kind: KindEval})
	if tr.NextInst() != 0 {
		t.Fatal("first instance tag not 0")
	}
	tr.Reset()
	if got := len(tr.Records()); got != 0 {
		t.Fatalf("reset left %d records", got)
	}
	if tr.NextInst() != 0 {
		t.Fatal("reset did not restart instance tags")
	}
	tr.Scope("s", 0).Emit(Record{Kind: KindEval})
	if recs := tr.Records(); recs[0].Seq != 0 {
		t.Fatalf("post-reset seq = %d, want 0", recs[0].Seq)
	}
}

func TestNextInstAllocatesDistinctTags(t *testing.T) {
	tr := NewTracer(1)
	if a, b := tr.NextInst(), tr.NextInst(); a == b {
		t.Fatalf("two allocations returned the same tag %d", a)
	}
}

func TestSortCausalOrder(t *testing.T) {
	recs := []Record{
		{Lamport: 2, Site: "b", Seq: 0},
		{Lamport: 1, Site: "b", Seq: 3},
		{Lamport: 1, Site: "a", Inst: 1, Seq: 2},
		{Lamport: 1, Site: "a", Inst: 0, Seq: 9},
		{Lamport: 1, Site: "a", Inst: 0, Seq: 1},
	}
	SortCausal(recs)
	want := []Record{
		{Lamport: 1, Site: "a", Inst: 0, Seq: 1},
		{Lamport: 1, Site: "a", Inst: 0, Seq: 9},
		{Lamport: 1, Site: "a", Inst: 1, Seq: 2},
		{Lamport: 1, Site: "b", Seq: 3},
		{Lamport: 2, Site: "b", Seq: 0},
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("order[%d] = %+v, want %+v", i, recs[i], want[i])
		}
	}
}

func TestMerge(t *testing.T) {
	a := []Record{{Lamport: 3, Site: "a"}, {Lamport: 1, Site: "a"}}
	b := []Record{{Lamport: 2, Site: "b"}}
	m := Merge(a, b)
	if len(m) != 3 || m[0].Lamport != 1 || m[1].Lamport != 2 || m[2].Lamport != 3 {
		t.Fatalf("merge order wrong: %+v", m)
	}
}

func TestAppendJSONGolden(t *testing.T) {
	full := Record{Lamport: 5, Site: "s0", Inst: 2, Kind: KindEval,
		Sym: "~e", At: 4, Guard: "f.g", Verdict: "wave", Seq: 17}
	want := `{"lam":5,"site":"s0","inst":2,"kind":"eval","sym":"~e","at":4,"guard":"f.g","verdict":"wave","seq":17}`
	if got := string(AppendJSON(nil, full)); got != want {
		t.Fatalf("full record:\n got %s\nwant %s", got, want)
	}
	minimal := Record{Site: "s1", Kind: KindAttempt, Seq: 0}
	want = `{"lam":0,"site":"s1","kind":"attempt","seq":0}`
	if got := string(AppendJSON(nil, minimal)); got != want {
		t.Fatalf("minimal record:\n got %s\nwant %s", got, want)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	recs := []Record{
		{Lamport: 1, Site: "a", Kind: KindAttempt, Sym: "e", Verdict: "forced", Seq: 0},
		{Lamport: 2, Site: "b", Inst: 3, Kind: KindFire, Sym: "~e", At: 2, Seq: 1},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip length %d, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestReadJSONLReportsLine(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader("{\"lam\":1,\"site\":\"a\",\"kind\":\"fire\",\"seq\":0}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 error, got %v", err)
	}
}

// TestDisabledEmitZeroAlloc locks in the near-zero-cost-when-off
// claim: with tracing disabled, the On gate and a guarded Emit
// allocate nothing.
func TestDisabledEmitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation breaks allocation counts")
	}
	tr := NewTracer(8)
	sc := tr.Scope("s0", 0)
	avg := testing.AllocsPerRun(1000, func() {
		if sc.On() {
			sc.Emit(Record{Kind: KindEval, Sym: "e"})
		}
		sc.Emit(Record{Kind: KindEval, Sym: "e"})
	})
	if avg != 0 {
		t.Fatalf("disabled tracing allocates %v times per op, want 0", avg)
	}
}

// BenchmarkScopeDisabled measures the permanent cost instrumented hot
// paths pay when tracing is off: one nil check plus one atomic load.
func BenchmarkScopeDisabled(b *testing.B) {
	tr := NewTracer(8)
	sc := tr.Scope("s0", 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if sc.On() {
			b.Fatal("tracer unexpectedly enabled")
		}
	}
}

// BenchmarkScopeEnabledRing measures the capturing path in ring mode.
func BenchmarkScopeEnabledRing(b *testing.B) {
	tr := NewTracer(1 << 12)
	tr.Enable(false)
	sc := tr.Scope("s0", 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Emit(Record{Lamport: int64(i), Kind: KindEval, Sym: "e", Verdict: "true"})
	}
}

// Merge combines several captures into one causally-ordered stream.
func Merge(captures ...[]Record) []Record {
	var n int
	for _, c := range captures {
		n += len(c)
	}
	out := make([]Record, 0, n)
	for _, c := range captures {
		out = append(out, c...)
	}
	SortCausal(out)
	return out
}

// Dropped returns the number of records the ring overwrote.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
