package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Record kinds: the protocol actions the decision tracer captures.
const (
	KindAttempt   = "attempt"   // an attempt reached the event's actor
	KindAnnounce  = "announce"  // an occurrence announcement was assimilated
	KindEval      = "eval"      // a guard was evaluated (Verdict: true/false/unknown/wave)
	KindResiduate = "residuate" // knowledge reduced the residual guard (Guard: new residual)
	KindFire      = "fire"      // the polarity occurred (At: occurrence index)
	KindReject    = "reject"    // the polarity was rejected (Verdict: reason)
)

// Record is one traced decision step.  Site and Inst identify where it
// happened; Lamport is the emitting transport's occurrence clock at
// emission time, which totally orders records consistently with
// causality across nodes; Seq is the per-tracer emission index, the
// deterministic tiebreak within a site.
type Record struct {
	Lamport int64  `json:"lam"`
	Site    string `json:"site"`
	Inst    uint32 `json:"inst,omitempty"`
	Kind    string `json:"kind"`
	Sym     string `json:"sym,omitempty"`
	At      int64  `json:"at,omitempty"`
	Guard   string `json:"guard,omitempty"`
	Verdict string `json:"verdict,omitempty"`
	Seq     uint64 `json:"seq"`
}

// Tracer collects records from any number of scopes.  The zero-cost
// requirement is concentrated in Scope.On and Scope.Emit: when the
// tracer is disabled, both are a nil check plus one atomic load —
// no locks, no allocation — so instrumentation stays compiled into
// the hot paths permanently.
//
// A tracer runs in one of two capture modes: ring (the default; the
// newest ringSize records are kept, older ones are dropped and
// counted) or full (everything is kept — the golden-replay and
// analysis mode).
type Tracer struct {
	enabled atomic.Bool
	insts   atomic.Uint32

	mu      sync.Mutex
	full    bool
	ringCap int
	recs    []Record
	next    int // ring write index once len(recs) == ringCap
	wrapped bool
	seq     uint64
	dropped int64
}

// NewTracer returns a disabled tracer with the given ring capacity
// (minimum 1).
func NewTracer(ringSize int) *Tracer {
	if ringSize < 1 {
		ringSize = 1
	}
	return &Tracer{ringCap: ringSize}
}

// shared is the process-wide tracer: attached to every actor that is
// not given an explicit one, disabled until a CLI flag or test enables
// it.  Keeping it attached everywhere is what the disabled fast path
// pays for — and why that path is benchmarked to zero allocations.
var shared = NewTracer(1 << 16)

// Shared returns the process-wide tracer.
func Shared() *Tracer { return shared }

// Enable turns capture on; full selects unbounded capture instead of
// the ring.  Switching modes resets the buffer.
func (t *Tracer) Enable(full bool) {
	t.mu.Lock()
	t.full = full
	t.recs = nil
	t.next = 0
	t.wrapped = false
	t.dropped = 0
	t.mu.Unlock()
	t.enabled.Store(true)
}

// Disable turns capture off; collected records stay readable.
func (t *Tracer) Disable() { t.enabled.Store(false) }

// Reset discards collected records and the sequence and instance-tag
// counters, so a fresh capture is deterministic from record zero.
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recs = nil
	t.next = 0
	t.wrapped = false
	t.seq = 0
	t.dropped = 0
	t.insts.Store(0)
}

// NextInst allocates a fresh instance tag (0, 1, 2, ...).  Distinct
// executions captured by one tracer must carry distinct tags or the
// per-instance invariants (one terminal verdict per event) read their
// interleaved records as one run; harnesses that drive a workflow
// several times in-process (scheduler comparisons, benchmarks) call
// this once per run.  Reset restarts the allocation.
func (t *Tracer) NextInst() uint32 {
	return t.insts.Add(1) - 1
}

func (t *Tracer) emit(r Record) {
	t.mu.Lock()
	r.Seq = t.seq
	t.seq++
	switch {
	case t.full || len(t.recs) < t.ringCap:
		t.recs = append(t.recs, r)
	default:
		t.recs[t.next] = r
		t.next = (t.next + 1) % t.ringCap
		t.wrapped = true
		t.dropped++
	}
	t.mu.Unlock()
}

// Records returns the collected records in emission order (oldest
// surviving record first).
func (t *Tracer) Records() []Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Record, 0, len(t.recs))
	if t.wrapped {
		out = append(out, t.recs[t.next:]...)
		out = append(out, t.recs[:t.next]...)
		return out
	}
	return append(out, t.recs...)
}

// Scope stamps records with a fixed site and instance before handing
// them to the tracer.  A nil scope is valid and permanently off, so
// holders never need a nil check of their own.
type Scope struct {
	t    *Tracer
	site string
	inst uint32
}

// Scope derives a site/instance scope.  A nil tracer yields a nil
// (disabled) scope.
func (t *Tracer) Scope(site string, inst uint32) *Scope {
	if t == nil {
		return nil
	}
	return &Scope{t: t, site: site, inst: inst}
}

// Retag moves the scope to another instance, so a recycled actor
// keeps its scope across runs (a nil scope stays nil).  The caller
// must own every emitter of the scope while it retags.
func (s *Scope) Retag(inst uint32) {
	if s != nil {
		s.inst = inst
	}
}

// On reports whether emissions would be recorded — the single-atomic-
// load gate call sites use to skip building record fields entirely.
func (s *Scope) On() bool { return s != nil && s.t.enabled.Load() }

// Emit records one step, stamping the scope's site and instance.
func (s *Scope) Emit(r Record) {
	if s == nil || !s.t.enabled.Load() {
		return
	}
	r.Site, r.Inst = s.site, s.inst
	s.t.emit(r)
}

// SortCausal orders records by (Lamport, Site, Inst, Seq): a total
// order consistent with the transports' occurrence clock, with the
// deterministic per-tracer sequence as the final tiebreak.  Merging
// the per-node captures of a distributed run and sorting them this way
// yields one causally-ordered stream.
func SortCausal(recs []Record) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Lamport != b.Lamport {
			return a.Lamport < b.Lamport
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		if a.Inst != b.Inst {
			return a.Inst < b.Inst
		}
		return a.Seq < b.Seq
	})
}

// AppendJSON appends one record as a single JSON line (no trailing
// newline) with a fixed field order — the deterministic encoding the
// golden-replay tests compare byte-for-byte.
func AppendJSON(dst []byte, r Record) []byte {
	dst = append(dst, `{"lam":`...)
	dst = strconv.AppendInt(dst, r.Lamport, 10)
	dst = append(dst, `,"site":`...)
	dst = strconv.AppendQuote(dst, r.Site)
	if r.Inst != 0 {
		dst = append(dst, `,"inst":`...)
		dst = strconv.AppendUint(dst, uint64(r.Inst), 10)
	}
	dst = append(dst, `,"kind":`...)
	dst = strconv.AppendQuote(dst, r.Kind)
	if r.Sym != "" {
		dst = append(dst, `,"sym":`...)
		dst = strconv.AppendQuote(dst, r.Sym)
	}
	if r.At != 0 {
		dst = append(dst, `,"at":`...)
		dst = strconv.AppendInt(dst, r.At, 10)
	}
	if r.Guard != "" {
		dst = append(dst, `,"guard":`...)
		dst = strconv.AppendQuote(dst, r.Guard)
	}
	if r.Verdict != "" {
		dst = append(dst, `,"verdict":`...)
		dst = strconv.AppendQuote(dst, r.Verdict)
	}
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, r.Seq, 10)
	return append(dst, '}')
}

// WriteJSONL writes records as JSON lines.
func WriteJSONL(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	for _, r := range recs {
		buf = AppendJSON(buf[:0], r)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL stream written by WriteJSONL.
func ReadJSONL(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(text, &rec); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
