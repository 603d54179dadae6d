package mc

// Exploration mode: the trace-level checker (mc.go) proves which
// maximal traces are admissible; this file drives the real scheduler
// stack — the same actors, plan, and runner the engine and the network
// transports use — through every nondeterministic announcement
// interleaving of a bounded run and asserts each reachable outcome is
// one of them.
//
// The transport under the runner is ctrlNet: a single-threaded,
// deterministic Transport holding one FIFO queue per (from,to) link.
// Whenever more than one link has a deliverable message the pump is at
// a choice point; a run follows a forced script of picks and then
// defaults to the first link.  The explorer is a stateless-re-execution
// DFS over those scripts: each completed run reports the choice points
// it passed, and every untaken alternative at a point whose state
// (actor digests + driver observations + queued messages) was not seen
// before becomes a new script to run.  State hashing is what keeps the
// walk polynomial-ish: delivery orders that reconverge — and most do,
// announcements to independent sites commute — are explored once.
import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/actor"
	"repro/internal/algebra"
	"repro/internal/arun"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/symtab"
)

// maxSteps bounds the deliveries of one explored run, catching
// livelock.
const maxSteps = 200_000

// ExploreOptions bound one exploration.
type ExploreOptions struct {
	// MaxEvents skips (explicitly) workflows over this many events
	// (default 12, matching Options.MaxEvents).
	MaxEvents int
	// MaxRuns bounds the number of complete scheduler runs (default
	// 4000).  Hitting it sets Report.Truncated rather than failing.
	MaxRuns int
	// Budget bounds wall-clock time (default 30s); hitting it sets
	// Truncated.
	Budget time.Duration
}

func (o ExploreOptions) withDefaults() ExploreOptions {
	if o.MaxEvents <= 0 {
		o.MaxEvents = 12
	}
	if o.MaxRuns <= 0 {
		o.MaxRuns = 4000
	}
	if o.Budget <= 0 {
		o.Budget = 30 * time.Second
	}
	return o
}

// ExploreReport summarizes one exploration.
type ExploreReport struct {
	Name string
	// Runs is the number of complete scheduler executions.
	Runs int
	// ChoicePoints and PrunedStates count scheduling branch points
	// and the ones cut by the visited-state hash.
	ChoicePoints, PrunedStates int
	// Outcomes maps reached outcome fingerprints to how many runs
	// produced them.
	Outcomes map[string]int
	// Violation is the first fingerprint outside the admissible set
	// ("" when conformant), with the run's realized trace.
	Violation      string
	ViolationTrace []string
	// Truncated reports that MaxRuns or Budget cut the walk short —
	// never silently; callers must surface it.
	Truncated  bool
	SkipReason string
	Elapsed    time.Duration
}

// Explore runs the scheduler-interleaving DFS for one spec.
func Explore(name string, sp *spec.Spec, opt ExploreOptions) (*ExploreReport, error) {
	o := opt.withDefaults()
	rep := &ExploreReport{Name: name, Outcomes: map[string]int{}}
	if n := len(sp.Workflow.Alphabet().Bases()); n > o.MaxEvents {
		rep.SkipReason = fmt.Sprintf("%d events exceed the %d-event bound", n, o.MaxEvents)
		return rep, nil
	}
	expected, skip, err := AdmissibleFingerprints(sp, o.MaxEvents)
	if err != nil {
		return nil, err
	}
	if skip != "" {
		rep.SkipReason = skip
		return rep, nil
	}

	plan, err := arun.NewPlan(sp, arun.PlanOptions{Observe: true})
	if err != nil {
		return nil, err
	}

	visited := map[[16]byte]bool{}
	stack := [][]int{nil}
	start := time.Now()
	for len(stack) > 0 {
		if rep.Runs >= o.MaxRuns || time.Since(start) > o.Budget {
			rep.Truncated = true
			break
		}
		script := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		net := newCtrlNet(script, visited)
		r, err := plan.NewRunner(net, arun.RunnerOptions{})
		if err != nil {
			return nil, err
		}
		net.hash = r.StateDigest
		out, err := r.Run()
		if net.err != nil {
			return nil, fmt.Errorf("mc: %s: exploration run %d: %w", name, rep.Runs, net.err)
		}
		if err != nil {
			return nil, fmt.Errorf("mc: %s: exploration run %d: %w", name, rep.Runs, err)
		}
		rep.Runs++
		rep.ChoicePoints += net.choices
		rep.PrunedStates += net.pruned

		fp := out.Fingerprint()
		rep.Outcomes[fp]++
		bad := !expected[fp]
		if !bad {
			// Fingerprints carry the occurred set; additionally re-judge
			// the realized order with the reference interpreter, so a
			// run that reaches an admissible set via an inadmissible
			// order is still caught.
			ok, err := refJudge(sp, out)
			if err != nil {
				return nil, fmt.Errorf("mc: %s: %w", name, err)
			}
			bad = ok != out.Satisfied
		}
		if bad && rep.Violation == "" {
			rep.Violation = fp
			rep.ViolationTrace = append([]string{}, out.Trace...)
		}

		for _, ep := range net.expand {
			for alt := 1; alt < ep.options; alt++ {
				ns := append(append([]int{}, net.taken[:ep.idx]...), alt)
				stack = append(stack, ns)
			}
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// AdmissibleFingerprints enumerates the outcome fingerprints (in
// arun.Outcome.Fingerprint form) of every maximal trace the reference
// interpreter admits — the set any scheduler execution of the spec
// must land in.  A non-empty skip reason is returned (instead of a
// wrong set) when the spec's agents attempt out-of-alphabet events,
// whose ⊤-guard outcomes the workflow-only enumeration cannot model.
func AdmissibleFingerprints(sp *spec.Spec, maxEvents int) (map[string]bool, string, error) {
	if x := outOfAlphabetAttempt(sp); x != "" {
		return nil, fmt.Sprintf("agent attempts out-of-alphabet event %s; outcomes are not comparable to the workflow-only admissible set", x), nil
	}
	admitted, err := AdmittedTraces(sp.Workflow, maxEvents)
	if err != nil {
		return nil, "", err
	}
	expected := make(map[string]bool, len(admitted))
	for _, u := range admitted {
		oc := arun.Outcome{Satisfied: true}
		for i, s := range u {
			oc.Trace = append(oc.Trace, s.Key())
			oc.At = append(oc.At, int64(i+1))
		}
		expected[oc.Fingerprint()] = true
	}
	return expected, "", nil
}

// refJudge re-evaluates a realized trace with the reference
// interpreter.
func refJudge(sp *spec.Spec, out *arun.Outcome) (bool, error) {
	u := make(algebra.Trace, 0, len(out.Trace))
	for _, k := range out.Trace {
		s, err := algebra.ParseSymbol(k)
		if err != nil {
			return false, fmt.Errorf("outcome symbol %q: %w", k, err)
		}
		u = append(u, s)
	}
	for _, d := range sp.Workflow.Deps {
		if !refSat(d, u) {
			return false, nil
		}
	}
	return true, nil
}

// outOfAlphabetAttempt returns the first agent-attempted base outside
// the workflow alphabet, or "".
func outOfAlphabetAttempt(sp *spec.Spec) string {
	known := map[string]bool{}
	for _, b := range sp.Workflow.Alphabet().Bases() {
		known[b.Key()] = true
	}
	var found string
	var walk func(steps []spec.Step)
	walk = func(steps []spec.Step) {
		for _, st := range steps {
			if found != "" {
				return
			}
			if k := st.Sym.Base().Key(); !known[k] {
				found = k
				return
			}
			walk(st.OnReject)
		}
	}
	for _, ag := range sp.Agents {
		walk(ag.Steps)
	}
	return found
}

// linkKey identifies one FIFO message queue.
type linkKey struct{ from, to simnet.SiteID }

// expandPoint is a choice point whose alternatives the explorer must
// still visit: the index into the pick sequence and the option count.
type expandPoint struct{ idx, options int }

// ctrlNet is the controllable deterministic transport: per-link FIFO
// queues, a synchronous pump, and a choice recorder.  Everything runs
// on the caller's goroutine — Send enqueues, WaitIdle delivers until
// quiescent — so a run is a pure function of the spec and the script.
type ctrlNet struct {
	handlers map[simnet.SiteID]func(actor.Net, any)
	queues   map[linkKey][]any
	tab      *symtab.Table // the plan's, for queueDigest
	steps    int
	occ      int64

	script  []int // forced picks for the choice points, in order
	taken   []int // picks actually made this run
	expand  []expandPoint
	visited map[[16]byte]bool
	hash    func() string // runner state digest; set after NewRunner
	choices int
	pruned  int
	err     error
}

func newCtrlNet(script []int, visited map[[16]byte]bool) *ctrlNet {
	return &ctrlNet{
		handlers: map[simnet.SiteID]func(actor.Net, any){},
		queues:   map[linkKey][]any{},
		script:   script,
		visited:  visited,
	}
}

// Register implements arun.Transport.
func (c *ctrlNet) Register(site simnet.SiteID, h func(n actor.Net, payload any)) {
	c.handlers[site] = h
}

// Send implements actor.Net: enqueue only, delivery happens in the
// WaitIdle pump.
func (c *ctrlNet) Send(from, to simnet.SiteID, payload any) {
	lk := linkKey{from, to}
	c.queues[lk] = append(c.queues[lk], payload)
}

// Now implements actor.Net: the delivery step counter, so timestamps
// are a function of the delivery order alone.
func (c *ctrlNet) Now() simnet.Time { return simnet.Time(c.steps) }

// NextOccurrence implements actor.Net.
func (c *ctrlNet) NextOccurrence() int64 { c.occ++; return c.occ }

// Clock implements actor.Net.
func (c *ctrlNet) Clock() int64 { return c.occ }

// Close implements arun.Transport.
func (c *ctrlNet) Close() {}

// UseSymbols implements arun.Transport: payloads stay in memory, and
// queueDigest encodes them against the table.
func (c *ctrlNet) UseSymbols(tab *symtab.Table) { c.tab = tab }

// IdleNow implements arun.Transport: the pump runs on the caller's
// goroutine, so asking whether the network is idle is what pumps it.
func (c *ctrlNet) IdleNow() bool { return c.WaitIdle(0) }

// IdleWait implements arun.Transport with an already-closed channel:
// IdleNow has pumped the queues dry before any waiter could block.
func (c *ctrlNet) IdleWait() (<-chan struct{}, func()) { return arun.Closed, func() {} }

// WaitIdle implements arun.Transport: pump deliveries — consulting the
// script at choice points — until no message is queued.  The timeout is
// ignored; the pump is synchronous and bounded by maxSteps.
func (c *ctrlNet) WaitIdle(time.Duration) bool {
	for {
		links := c.nonempty()
		if len(links) == 0 {
			return true
		}
		if c.steps++; c.steps > maxSteps {
			c.err = fmt.Errorf("mc: exploration exceeded %d deliveries in one run (livelock?)", maxSteps)
			return false
		}
		pick := 0
		if di := c.driverBound(links); di >= 0 {
			pick = di
		} else if len(links) > 1 {
			c.choices++
			at := len(c.taken)
			if at < len(c.script) {
				pick = c.script[at]
				if pick >= len(links) {
					c.err = fmt.Errorf("mc: exploration replay diverged: choice %d has %d options, script says %d", at, len(links), pick)
					return false
				}
			} else if c.hash != nil {
				key := stateKey(c.hash(), c.queueDigest(links))
				if c.visited[key] {
					c.pruned++
				} else {
					c.visited[key] = true
					c.expand = append(c.expand, expandPoint{at, len(links)})
				}
			}
			c.taken = append(c.taken, pick)
		}
		lk := links[pick]
		q := c.queues[lk]
		payload := q[0]
		if len(q) == 1 {
			delete(c.queues, lk)
		} else {
			c.queues[lk] = q[1:]
		}
		h := c.handlers[lk.to]
		if h == nil {
			c.err = fmt.Errorf("mc: exploration: message %v to unregistered site %s", payload, lk.to)
			return false
		}
		h(c, payload)
	}
}

// driverBound returns the index of the first link to the driver, or
// -1.  The driver is the observer site: deliveries to it only append to
// the runner's observation maps and commute with every other delivery,
// so the pump drains them eagerly instead of branching on them — a
// sound reduction that removes the bulk of the interleavings.
func (c *ctrlNet) driverBound(links []linkKey) int {
	for i, lk := range links {
		if lk.to == arun.DefaultDriver {
			return i
		}
	}
	return -1
}

// stateKey compresses a visited-state digest to 128 bits (FNV-1a);
// the visited set holds hundreds of thousands of entries and the raw
// digests run to kilobytes.
func stateKey(parts ...string) [16]byte {
	h := fnv.New128a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	var k [16]byte
	h.Sum(k[:0])
	return k
}

// nonempty returns the queued links in deterministic (from,to) order.
func (c *ctrlNet) nonempty() []linkKey {
	links := make([]linkKey, 0, len(c.queues))
	for lk := range c.queues {
		links = append(links, lk)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].from != links[j].from {
			return links[i].from < links[j].from
		}
		return links[i].to < links[j].to
	})
	return links
}

// queueDigest serializes the pending messages, every field of each: a
// message goes through the wire codec, which writes all of them.
func (c *ctrlNet) queueDigest(links []linkKey) string {
	var b []byte
	for _, lk := range links {
		b = fmt.Appendf(b, "%s>%s:", lk.from, lk.to)
		for _, m := range c.queues[lk] {
			enc, err := actor.AppendPayload(c.tab, b, m)
			if err != nil {
				panic(fmt.Sprintf("mc: queued payload %T: %v", m, err))
			}
			b = append(enc, ';')
		}
	}
	return string(b)
}
