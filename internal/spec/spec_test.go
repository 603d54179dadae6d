package spec

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

const travelSpec = `
# Example 4: trip booking with compensation.
workflow travel

dep init:  ~s_buy + s_book
dep order: ~c_buy + c_book . c_buy
dep comp:  ~c_book + c_buy + s_cancel

event s_buy    site=buy
event c_buy    site=buy
event s_book   site=book triggerable
event c_book   site=book
event s_cancel site=cancel triggerable

agent buy site=buy
  step s_buy think=10
  step c_buy think=40 onreject=~c_buy

agent book site=book
  step s_book think=30
  step c_book think=20
`

// TravelSpec exports travelSpec to the external tests.
var TravelSpec = travelSpec

func TestParseTravel(t *testing.T) {
	s, err := ParseString(travelSpec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "travel" {
		t.Errorf("name: %q", s.Name)
	}
	if len(s.Workflow.Deps) != 3 {
		t.Fatalf("deps: %d", len(s.Workflow.Deps))
	}
	if s.Workflow.Name(1) != "order" {
		t.Errorf("dep label: %q", s.Workflow.Name(1))
	}
	if len(s.Events) != 5 {
		t.Fatalf("events: %d", len(s.Events))
	}
	if got := s.Triggerable(); len(got) != 2 || got[0] != "s_book" || got[1] != "s_cancel" {
		t.Fatalf("triggerable: %v", got)
	}
	pl := s.Placement()
	if pl["c_book"] != "book" || pl["s_cancel"] != "cancel" {
		t.Fatalf("placement: %v", pl)
	}
	if len(s.Agents) != 2 || len(s.Agents[0].Steps) != 2 {
		t.Fatalf("agents: %+v", s.Agents)
	}
	step := s.Agents[0].Steps[1]
	if step.Think != 40 || len(step.OnReject) != 1 || step.OnReject[0].Sym.Key() != "~c_buy" {
		t.Fatalf("step: %+v", step)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	s, err := ParseString(travelSpec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseString(s.Format())
	if err != nil {
		t.Fatalf("re-parsing formatted spec: %v\n%s", err, s.Format())
	}
	if again.Format() != s.Format() {
		t.Fatalf("format not stable:\n%s\nvs\n%s", s.Format(), again.Format())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                     // no deps
		"dep e +",              // bad expression
		"workflow a b",         // extra token
		"event",                // missing symbol
		"event e site=x bogus", // unknown option
		"agent x\n",            // missing site
		"step e",               // step outside agent
		"dep e\nagent a site=s\n step e think=abc", // bad think
		"dep e\nagent a site=s\n step e weird=1",   // unknown option
		"dep e\nagent a site=s\n step (",           // bad symbol
		"frobnicate now",                           // unknown directive
	}
	for _, src := range bad {
		if _, err := ParseString(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	s, err := ParseString("# hi\n\n  # indented comment\ndep e + f\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workflow.Deps) != 1 {
		t.Fatal("dep not parsed")
	}
}

func TestDepWithoutLabelContainingColonParams(t *testing.T) {
	// A colon heuristic must not eat expressions without labels.
	s, err := ParseString("dep ~e + f . g\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Workflow.Deps[0].Key(); got != "f . g + ~e" {
		t.Fatalf("expr: %q", got)
	}
	if s.Workflow.Name(0) != "D1" {
		t.Fatalf("label: %q", s.Workflow.Name(0))
	}
}

func TestFormatIncludesEverything(t *testing.T) {
	s, _ := ParseString(travelSpec)
	out := s.Format()
	for _, want := range []string{"workflow travel", "dep order:", "event s_cancel site=cancel triggerable",
		"agent buy site=buy", "step c_buy think=40 onreject=~c_buy"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
}

// Format renders the spec back to text (canonical expressions).
func (s *Spec) Format() string {
	var b strings.Builder
	if s.Name != "" {
		fmt.Fprintf(&b, "workflow %s\n", s.Name)
	}
	for i, d := range s.Workflow.Deps {
		label := ""
		if s.Workflow.Names != nil && s.Workflow.Names[i] != "" {
			label = s.Workflow.Names[i] + ": "
		}
		fmt.Fprintf(&b, "dep %s%s\n", label, d.Key())
	}
	keys := make([]string, 0, len(s.Events))
	for k := range s.Events {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		meta := s.Events[k]
		fmt.Fprintf(&b, "event %s", meta.Sym.Key())
		if meta.Site != "" {
			fmt.Fprintf(&b, " site=%s", meta.Site)
		}
		if meta.Triggerable {
			b.WriteString(" triggerable")
		}
		if meta.Rejectable {
			b.WriteString(" rejectable")
		}
		b.WriteByte('\n')
	}
	for _, ag := range s.Agents {
		fmt.Fprintf(&b, "agent %s site=%s\n", ag.ID, ag.Site)
		for _, st := range ag.Steps {
			fmt.Fprintf(&b, "  step %s", st.Sym.Key())
			if st.Think != 0 {
				fmt.Fprintf(&b, " think=%d", st.Think)
			}
			if st.Forced {
				b.WriteString(" forced")
			}
			if len(st.OnReject) > 0 {
				parts := make([]string, len(st.OnReject))
				for i, alt := range st.OnReject {
					parts[i] = alt.Sym.Key()
				}
				fmt.Fprintf(&b, " onreject=%s", strings.Join(parts, ";"))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
