package arun_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/actor"
	"repro/internal/arun"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/symtab"
)

// The protocol goldens pin what the actors say to each other.  Each
// checked-in run is a spec and seed on the serial drive over the
// simulator; its .msgs file holds the run's fingerprint and every
// payload delivered to any site, in delivery order, and its .trace.jsonl
// file the causally sorted decision records of the same run traced.
// A change that claims to preserve behaviour must keep both byte for
// byte: the goldens are never regenerated by such a change.

// goldenSeeds are the simulator seeds every golden spec runs at.
var goldenSeeds = []int64{1, 2, 3}

// goldenSpecs are the workflows the goldens cover: the two checked-in
// specs (¬-consensus and promise waves) and two all-pairs precedence
// specs (the benchmark's served dense6 and engine dense12).
func goldenSpecs(t *testing.T) map[string]*spec.Spec {
	t.Helper()
	out := map[string]*spec.Spec{
		"travel": loadSpec(t, "../../testdata/travel.wf"),
		"mutex":  loadSpec(t, "../../testdata/mutex.wf"),
	}
	for _, n := range []int{6, 12} {
		sp, err := spec.ParseString(denseSrc(n))
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("dense%d", n)] = sp
	}
	return out
}

var goldenOrder = []string{"travel", "mutex", "dense6", "dense12"}

// logTransport records every payload the wrapped transport delivers,
// with the receiving site and the virtual time of delivery, naming its
// ids through the plan's table.
type logTransport struct {
	arun.Transport
	tab   *symtab.Table
	lines []string
}

func (l *logTransport) UseSymbols(tab *symtab.Table) {
	l.tab = tab
	l.Transport.UseSymbols(tab)
}

func (l *logTransport) Register(site simnet.SiteID, h func(n actor.Net, payload any)) {
	l.Transport.Register(site, func(n actor.Net, p any) {
		l.lines = append(l.lines, fmt.Sprintf("%d %s %s", n.Now(), site, payloadText(l.tab, p)))
		h(n, p)
	})
}

func symsText(tab *symtab.Table, ids []symtab.ID) string {
	keys := make([]string, len(ids))
	for i, id := range ids {
		keys[i] = tab.Key(id)
	}
	return strings.Join(keys, ",")
}

// payloadText renders one protocol payload with every field the
// protocol reads.
func payloadText(tab *symtab.Table, p any) string {
	switch m := p.(type) {
	case actor.AttemptMsg:
		return fmt.Sprintf("attempt %s forced=%v reply=%s", tab.Key(m.ID), m.Forced, m.ReplyTo)
	case actor.AnnounceMsg:
		return fmt.Sprintf("announce %s@%d", tab.Key(m.ID), m.At)
	case actor.InquireMsg:
		return fmt.Sprintf("inquire %s req=%s r%d reply=%s hyp=%s",
			tab.Key(m.Target), tab.Key(m.Requester), m.Round, m.ReplyTo, symsText(tab, m.Hyp))
	case actor.InquireReplyMsg:
		return fmt.Sprintf("reply %s req=%s r%d occ=%v@%d imp=%v held=%v prom=%v conds=%s after=%v",
			tab.Key(m.Target), tab.Key(m.Requester), m.Round, m.Occurred, m.At, m.Impossible,
			m.Held, m.Promised, symsText(tab, m.Conds), m.AfterReq)
	case actor.ReleaseMsg:
		return fmt.Sprintf("release %s req=%s r%d promise=%v fired=%v",
			tab.Key(m.Target), tab.Key(m.Requester), m.Round, m.Promise, m.Fired)
	case actor.NudgeMsg:
		return fmt.Sprintf("nudge %s", tab.Key(m.ID))
	case actor.DecisionMsg:
		return fmt.Sprintf("decision %s acc=%v at=%d attempted=%d decided=%d reason=%q",
			tab.Key(m.ID), m.Accepted, m.At, m.AttemptedAt, m.DecidedAt, m.Reason)
	}
	return fmt.Sprintf("%T %v", p, p)
}

// protocolRun is one serial simulator run's observable protocol: the
// fingerprint and delivered payloads (msgs) and, when traced, the
// sorted JSONL decision records.
type protocolRun struct {
	msgs  []byte
	trace []byte
}

func runProtocol(t *testing.T, sp *spec.Spec, seed int64, traced bool) protocolRun {
	t.Helper()
	tr := &logTransport{Transport: arun.NewSimTransport(seed, nil)}
	defer tr.Close()
	plan, err := arun.NewPlan(sp, arun.PlanOptions{Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(1)
	if traced {
		tracer.Enable(true)
	}
	r, err := plan.NewRunner(tr, arun.RunnerOptions{Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	var run protocolRun
	var b bytes.Buffer
	fmt.Fprintf(&b, "fingerprint %s\n", out.Fingerprint())
	for _, l := range tr.lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	run.msgs = b.Bytes()
	if traced {
		recs := tracer.Records()
		obs.SortCausal(recs)
		var tb bytes.Buffer
		if err := obs.WriteJSONL(&tb, recs); err != nil {
			t.Fatal(err)
		}
		run.trace = tb.Bytes()
	}
	return run
}

func goldenPath(name string, seed int64, ext string) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s-s%d.%s", name, seed, ext))
}

// TestProtocolGolden replays every golden run untraced and traced and
// demands the checked-in payload log, fingerprint and trace byte for
// byte.
func TestProtocolGolden(t *testing.T) {
	specs := goldenSpecs(t)
	for _, name := range goldenOrder {
		for _, seed := range goldenSeeds {
			name, seed := name, seed
			t.Run(fmt.Sprintf("%s/s%d", name, seed), func(t *testing.T) {
				wantMsgs, err := os.ReadFile(goldenPath(name, seed, "msgs"))
				if err != nil {
					t.Fatal(err)
				}
				wantTrace, err := os.ReadFile(goldenPath(name, seed, "trace.jsonl"))
				if err != nil {
					t.Fatal(err)
				}
				plain := runProtocol(t, specs[name], seed, false)
				if !bytes.Equal(plain.msgs, wantMsgs) {
					t.Errorf("untraced payload log differs from the golden: %s", lineDiff(wantMsgs, plain.msgs))
				}
				traced := runProtocol(t, specs[name], seed, true)
				if !bytes.Equal(traced.msgs, wantMsgs) {
					t.Errorf("traced payload log differs from the golden: %s", lineDiff(wantMsgs, traced.msgs))
				}
				if !bytes.Equal(traced.trace, wantTrace) {
					t.Errorf("trace differs from the golden: %s", lineDiff(wantTrace, traced.trace))
				}
			})
		}
	}
}

// TestTraceDoesNotChangeRun: watching a run must not change it.  With
// tracing on and off, every run delivers the same payloads in the same
// order and ends with the same fingerprint, on more seeds than the
// goldens pin.
func TestTraceDoesNotChangeRun(t *testing.T) {
	specs := goldenSpecs(t)
	for _, name := range goldenOrder {
		for seed := int64(1); seed <= 20; seed++ {
			off := runProtocol(t, specs[name], seed, false)
			on := runProtocol(t, specs[name], seed, true)
			if !bytes.Equal(off.msgs, on.msgs) {
				t.Errorf("%s seed %d: tracing changed the run: %s", name, seed, lineDiff(off.msgs, on.msgs))
			}
		}
	}
}

// lineDiff renders the first differing line pair.
func lineDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d:\n  want %s\n  got  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("one is a prefix of the other (%d vs %d lines)", len(wl), len(gl))
}
