// Package spec implements the .wf workflow specification language: the
// textual front end standing in for the graphical notation the paper
// assumes ("a user would typically be supplied with some graphical
// notation … translated into our formal language").
//
// A spec file is line-oriented.  Blank lines and lines starting with
// '#' are ignored.  Directives:
//
//	workflow <name>
//	dep [<label>:] <expression>
//	event <symbol> [site=<site>] [triggerable]
//	agent <id> site=<site>
//	  step <symbol> [think=<µs>] [forced] [onreject=<sym>;<sym>…]
//
// Expressions use the algebra's text syntax: ~e (complement), . + |,
// 0, T, parameters e[?x] / e[c].  Step lines belong to the most recent
// agent and are indented by convention (indentation is not
// significant).  Example:
//
//	workflow travel
//	dep init:  ~s_buy + s_book
//	dep order: ~c_buy + c_book . c_buy
//	dep comp:  ~c_book + c_buy + s_cancel
//	event s_cancel site=cancel triggerable
//	agent buy site=buy
//	  step s_buy think=10
//	  step c_buy think=40 onreject=~c_buy
package spec

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/simnet"
)

// EventMeta is the per-event metadata of an `event` directive.
type EventMeta struct {
	Sym         algebra.Symbol
	Site        simnet.SiteID
	Triggerable bool
	// Rejectable marks events whose complement the scheduler may
	// declare proactively (promise "x will never occur" when that is
	// legal) — the rejection power of §3.3 made available to the
	// distributed consensus machinery.
	Rejectable bool
}

// Spec is a parsed .wf file.
type Spec struct {
	// Name from the workflow directive (optional).
	Name string
	// Workflow holds the dependencies, with labels in Names.
	Workflow *core.Workflow
	// Events carries per-event metadata, keyed by base symbol.
	Events map[string]EventMeta
	// Agents are the scripted task agents.
	Agents []*AgentScript
}

// Parse reads a spec.
func Parse(r io.Reader) (*Spec, error) {
	s := &Spec{
		Workflow: &core.Workflow{},
		Events:   map[string]EventMeta{},
	}
	var current *AgentScript
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		raw := scanner.Text()
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "workflow":
			if len(fields) != 2 {
				return nil, perr(lineNo, "workflow", "", nil, "workflow needs exactly one name")
			}
			s.Name = fields[1]
		case "dep":
			rest := strings.TrimSpace(strings.TrimPrefix(line, "dep"))
			label := ""
			if i := strings.Index(rest, ":"); i >= 0 && !strings.ContainsAny(rest[:i], " \t()+|.~") {
				label = strings.TrimSpace(rest[:i])
				rest = strings.TrimSpace(rest[i+1:])
			}
			d, err := algebra.Parse(rest)
			if err != nil {
				return nil, perr(lineNo, "dep", "", err, "%v", err).at(raw, rest)
			}
			s.Workflow.Deps = append(s.Workflow.Deps, d)
			s.Workflow.Names = append(s.Workflow.Names, label)
		case "event":
			if len(fields) < 2 {
				return nil, perr(lineNo, "event", "", nil, "event needs a symbol")
			}
			sym, err := algebra.ParseSymbol(fields[1])
			if err != nil {
				return nil, perr(lineNo, "event", fields[1], err, "%v", err).at(raw, fields[1])
			}
			meta := EventMeta{Sym: sym.Base()}
			for _, opt := range fields[2:] {
				switch {
				case strings.HasPrefix(opt, "site="):
					meta.Site = simnet.SiteID(strings.TrimPrefix(opt, "site="))
				case opt == "triggerable":
					meta.Triggerable = true
				case opt == "rejectable":
					meta.Rejectable = true
				default:
					return nil, perr(lineNo, "event", meta.Sym.Key(), nil, "unknown event option %q", opt).at(raw, opt)
				}
			}
			s.Events[meta.Sym.Key()] = meta
		case "agent":
			if len(fields) < 3 || !strings.HasPrefix(fields[2], "site=") {
				return nil, perr(lineNo, "agent", "", nil, "agent needs an id and site=")
			}
			current = &AgentScript{
				ID:   fields[1],
				Site: simnet.SiteID(strings.TrimPrefix(fields[2], "site=")),
			}
			s.Agents = append(s.Agents, current)
		case "step":
			if current == nil {
				return nil, perr(lineNo, "step", "", nil, "step outside an agent")
			}
			step, err := parseStep(raw, fields[1:], lineNo)
			if err != nil {
				return nil, err
			}
			current.Steps = append(current.Steps, step)
		default:
			return nil, perr(lineNo, "", "", nil, "unknown directive %q", fields[0]).at(raw, fields[0])
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if len(s.Workflow.Deps) == 0 {
		return nil, perr(0, "", "", nil, "no dependencies")
	}
	return s, nil
}

func parseStep(raw string, fields []string, lineNo int) (Step, error) {
	if len(fields) < 1 {
		return Step{}, perr(lineNo, "step", "", nil, "step needs a symbol")
	}
	sym, err := algebra.ParseSymbol(fields[0])
	if err != nil {
		return Step{}, perr(lineNo, "step", fields[0], err, "%v", err).at(raw, fields[0])
	}
	st := Step{Sym: sym}
	for _, opt := range fields[1:] {
		switch {
		case strings.HasPrefix(opt, "think="):
			n, err := strconv.ParseInt(strings.TrimPrefix(opt, "think="), 10, 64)
			if err != nil || n < 0 {
				return Step{}, perr(lineNo, "step", st.Sym.Key(), nil, "bad think value %q", opt).at(raw, opt)
			}
			st.Think = simnet.Time(n)
		case opt == "forced":
			st.Forced = true
		case strings.HasPrefix(opt, "onreject="):
			for _, part := range strings.Split(strings.TrimPrefix(opt, "onreject="), ";") {
				alt, err := algebra.ParseSymbol(part)
				if err != nil {
					return Step{}, perr(lineNo, "step", part, err, "onreject %q: %v", part, err).at(raw, part)
				}
				st.OnReject = append(st.OnReject, Step{Sym: alt})
			}
		default:
			return Step{}, perr(lineNo, "step", st.Sym.Key(), nil, "unknown step option %q", opt).at(raw, opt)
		}
	}
	return st, nil
}

// ParseString parses a spec from a string.
func ParseString(src string) (*Spec, error) { return Parse(strings.NewReader(src)) }

// Placement derives the scheduler placement from the event metadata;
// events without a site default to "s0".
func (s *Spec) Placement() Placement {
	pl := Placement{}
	for key, meta := range s.Events {
		if meta.Site != "" {
			pl[key] = meta.Site
		}
	}
	return pl
}

// Triggerable lists the symbols the scheduler may proactively cause:
// the triggerable events plus the complements of the rejectable ones.
func (s *Spec) Triggerable() []string {
	var out []string
	for key, meta := range s.Events {
		if meta.Triggerable {
			out = append(out, key)
		}
		if meta.Rejectable {
			out = append(out, meta.Sym.Complement().Key())
		}
	}
	sort.Strings(out)
	return out
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
