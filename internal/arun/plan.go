package arun

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/actor"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/gprog"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/temporal"
)

// Plan is everything about hosting a spec that does not depend on the
// particular run: the compiled guards, the alphabet split, the
// directory (placement and watch subscriptions), the per-polarity
// guard specs with their parsed consensus-elimination sets, and the
// parsed triggerable symbols.  Building it costs one compile plus some
// parsing; NewRunner then instantiates fresh actors against the shared
// plan, which is what lets internal/engine run hundreds of concurrent
// instances of one workflow without recompiling or re-placing per
// instance.  A Plan is immutable after NewPlan and safe for concurrent
// NewRunner calls.
type Plan struct {
	sp     *spec.Spec
	c      *core.Compiled
	bases  []algebra.Symbol
	extras []algebra.Symbol
	// observe: the driver site is subscribed to every base and
	// registered as a message handler, and attempts carry it as
	// ReplyTo — the cross-process observation mode.  Without it the
	// runner observes through actor hooks instead: no observer
	// traffic at all, which single-process engines exploit.
	observe bool
	driver  simnet.SiteID
	dir     *actor.Directory
	siteOf  map[string]simnet.SiteID // base key → actor site
	pos     map[string]actor.GuardSpec
	neg     map[string]actor.GuardSpec
	// progs holds the compiled guard programs, one per base event,
	// shared read-only across every instance's actors (each actor
	// derives its own mutable gprog.State).
	progs map[string]*gprog.Prog
	// extraProg is the ⊤/⊤ program every out-of-alphabet extra shares.
	extraProg *gprog.Prog
	trig      []algebra.Symbol
	sites     []simnet.SiteID // sorted distinct actor sites
}

// PlanOptions configure NewPlan.
type PlanOptions struct {
	// Driver is the site attempts originate from (default "ctl").  It
	// must not collide with any actor site.
	Driver simnet.SiteID
	// Observe subscribes and registers the driver site as the
	// observer of every announcement and decision.  Required for
	// multi-process runs; single-process runners can leave it off and
	// observe through hooks, halving the driver-bound traffic.
	Observe bool
	// Compiled reuses a pre-compiled workflow (optional).
	Compiled *core.Compiled
}

// NewPlan compiles (unless pre-compiled) and computes the shared
// install plan.
func NewPlan(sp *spec.Spec, opt PlanOptions) (*Plan, error) {
	driver := opt.Driver
	if driver == "" {
		driver = DefaultDriver
	}
	c := opt.Compiled
	if c == nil {
		var err error
		if c, err = core.Compile(sp.Workflow); err != nil {
			return nil, err
		}
	}
	p := &Plan{
		sp: sp, c: c, observe: opt.Observe, driver: driver,
		dir:    actor.NewDirectory(),
		siteOf: map[string]simnet.SiteID{},
		pos:    map[string]actor.GuardSpec{},
		neg:    map[string]actor.GuardSpec{},
		progs:  map[string]*gprog.Prog{},
	}
	p.bases, p.extras = alphabetAndExtras(sp)
	pl := sp.Placement()
	all := append(append([]algebra.Symbol{}, p.bases...), p.extras...)
	seenSite := map[simnet.SiteID]bool{}
	for _, b := range all {
		site := pl.SiteFor(b)
		if site == driver {
			return nil, fmt.Errorf("arun: event %s placed on the driver site %q", b, driver)
		}
		p.siteOf[b.Key()] = site
		if !seenSite[site] {
			seenSite[site] = true
			p.sites = append(p.sites, site)
		}
		p.dir.Place(b, site)
		if p.observe {
			// The driver observes every occurrence: resolution state
			// and outcome traces are driven off these announcements,
			// which is what makes the runner work across process
			// boundaries.
			p.dir.Subscribe(b, driver)
		}
	}
	sort.Slice(p.sites, func(i, j int) bool { return p.sites[i] < p.sites[j] })
	for _, b := range p.bases {
		site := p.siteOf[b.Key()]
		for _, polKey := range []string{b.Key(), b.Complement().Key()} {
			if eg := c.Guards[polKey]; eg != nil {
				for _, w := range eg.Watches {
					p.dir.Subscribe(w, site)
				}
			}
		}
		pos, neg := guardSpecFor(c, b), guardSpecFor(c, b.Complement())
		p.pos[b.Key()], p.neg[b.Key()] = pos, neg
		p.progs[b.Key()] = gprog.Compile(
			gprog.GuardInput{Guard: pos.Guard, LocalNeg: pos.LocalNeg},
			gprog.GuardInput{Guard: neg.Guard, LocalNeg: neg.LocalNeg})
	}
	p.extraProg = gprog.Compile(
		gprog.GuardInput{Guard: temporal.TrueF()},
		gprog.GuardInput{Guard: temporal.TrueF()})
	for _, key := range sp.Triggerable() {
		s, err := algebra.ParseSymbol(key)
		if err != nil {
			return nil, fmt.Errorf("arun: triggerable %q: %w", key, err)
		}
		if _, ok := p.siteOf[s.Base().Key()]; !ok {
			return nil, fmt.Errorf("arun: triggerable %q has no actor", key)
		}
		p.trig = append(p.trig, s)
	}
	return p, nil
}

// Compiled returns the plan's compiled workflow.
func (p *Plan) Compiled() *core.Compiled { return p.c }

// Spec returns the spec the plan was built from (read-only by
// convention: plans are shared across concurrent runners).
func (p *Plan) Spec() *spec.Spec { return p.sp }

// Sites returns the plan's sorted distinct actor sites.
func (p *Plan) Sites() []simnet.SiteID {
	return append([]simnet.SiteID(nil), p.sites...)
}

// siteFor resolves the actor site of a symbol.
func (p *Plan) siteFor(s algebra.Symbol) (simnet.SiteID, error) {
	site, ok := p.siteOf[s.Base().Key()]
	if !ok {
		return "", fmt.Errorf("arun: no actor placed for event %s", s.Base())
	}
	return site, nil
}

// RunnerOptions configure one runner over a shared plan.
type RunnerOptions struct {
	// Hosted filters which sites this process installs actors for;
	// nil hosts everything.
	Hosted func(site simnet.SiteID) bool
	// IdleTimeout bounds each quiescence wait (default 10s).
	IdleTimeout time.Duration
	// Pipelined completes each attempt as soon as its own decision
	// arrives instead of waiting for the whole transport to go idle;
	// full quiescence is only established when the drive appears to
	// stall and once at the end of the run.  Requires a transport
	// whose WaitIdle is cheap to probe, and changes interleavings —
	// sound for confluent workflows (see DESIGN.md decision 13).
	Pipelined bool
	// PollInterval is the pipelined mode's decision-wait slice and
	// idle-probe budget (default 200µs).
	PollInterval time.Duration
	// Scratch recycles the runner's observation maps across instances
	// (optional; see NewScratch).
	Scratch *Scratch
	// SatCache shares trace-satisfaction results across runners of
	// the same spec (optional; see NewSatCache).
	SatCache *SatCache
	// Tracer receives every actor's decision records; nil falls back
	// to the process-wide obs.Shared() tracer (disabled by default, so
	// the cost is one atomic load per protocol step).
	Tracer *obs.Tracer
	// Instance tags this runner's trace records (engine instance id;
	// zero for single-instance runs).
	Instance uint32
}

// NewRunner instantiates fresh actors for the plan on a transport.
// Unless the plan observes through the driver site, the runner
// registers hooks on its actors and observes fires and decisions
// in-process.
func (p *Plan) NewRunner(tr Transport, opt RunnerOptions) (*Runner, error) {
	b, err := p.build(tr, opt, false)
	if err != nil {
		return nil, err
	}
	return b.r, nil
}

// runnerBuild is the intermediate state NewRunner and Resume share:
// the runner plus the host map Resume needs for state restoration and
// deferred trace-scope attachment.
type runnerBuild struct {
	r      *Runner
	hosts  map[simnet.SiteID]*siteHost
	tracer *obs.Tracer
	inst   uint32
}

// build constructs a runner and its hosted actors and registers every
// handler on the transport.  With quietTrace, actors start with nil
// trace scopes — Resume replays the WAL through them first (replayed
// protocol steps were traced in the pre-crash run and must not be
// re-emitted) and attaches the scopes afterwards.
func (p *Plan) build(tr Transport, opt RunnerOptions, quietTrace bool) (*runnerBuild, error) {
	hosted := opt.Hosted
	if hosted == nil {
		hosted = func(simnet.SiteID) bool { return true }
	}
	timeout := opt.IdleTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	poll := opt.PollInterval
	if poll <= 0 {
		poll = 200 * time.Microsecond
	}
	scratch := opt.Scratch
	if scratch == nil {
		scratch = NewScratch()
	} else {
		scratch.reset()
	}
	r := &Runner{
		tr: tr, plan: p, driver: p.driver, timeout: timeout,
		pipelined: opt.Pipelined, poll: poll, satCache: opt.SatCache,
		occ: scratch.occ, dec: scratch.dec, decGen: scratch.decGen,
	}
	var hooks *actor.Hooks
	if !p.observe {
		hooks = &actor.Hooks{OnFire: r.hookFire, OnDecision: r.hookDecision}
	}
	tracer := opt.Tracer
	if tracer == nil {
		tracer = obs.Shared()
	}

	hosts := map[simnet.SiteID]*siteHost{}
	host := func(site simnet.SiteID) *siteHost {
		h, ok := hosts[site]
		if !ok {
			h = &siteHost{site: site, actors: map[string]*actor.Actor{}}
			hosts[site] = h
		}
		return h
	}
	attach := func(a *actor.Actor) *actor.Actor {
		if !quietTrace {
			a.Trace = tracer.Scope(string(a.Site()), opt.Instance)
		}
		return a
	}
	for _, b := range p.bases {
		site := p.siteOf[b.Key()]
		if !hosted(site) {
			continue
		}
		a := actor.New(b, site, p.dir, hooks, p.pos[b.Key()], p.neg[b.Key()])
		a.AttachProgram(p.progs[b.Key()])
		host(site).add(attach(a))
	}
	for _, x := range p.extras {
		site := p.siteOf[x.Key()]
		if !hosted(site) {
			continue
		}
		a := actor.New(x, site, p.dir, hooks,
			actor.GuardSpec{Guard: temporal.TrueF()},
			actor.GuardSpec{Guard: temporal.TrueF()})
		a.AttachProgram(p.extraProg)
		host(site).add(attach(a))
	}
	for _, s := range p.trig {
		if h, ok := hosts[p.siteOf[s.Base().Key()]]; ok {
			h.actors[s.Base().Key()].SetTriggerable(s)
		}
	}

	sites := make([]simnet.SiteID, 0, len(hosts))
	for site := range hosts {
		sites = append(sites, site)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	for _, site := range sites {
		tr.Register(site, hosts[site].deliver)
	}
	if p.observe && hosted(p.driver) {
		tr.Register(p.driver, r.onDriverMsg)
	}
	r.hosts = hosts
	b := &runnerBuild{r: r, hosts: hosts, tracer: tracer, inst: opt.Instance}
	if sp, ok := tr.(snapshotable); ok {
		sp.SetSnapshotProvider(b.exportSite)
	}
	return b, nil
}

// Scratch is the recyclable per-run observation state: internal/engine
// pools these so steady-state instance turnover does not re-allocate
// the maps.
type Scratch struct {
	occ    map[string]occRec
	dec    map[string]actor.DecisionMsg
	decGen map[string]uint64
}

// NewScratch allocates an empty scratch.
func NewScratch() *Scratch {
	return &Scratch{
		occ:    map[string]occRec{},
		dec:    map[string]actor.DecisionMsg{},
		decGen: map[string]uint64{},
	}
}

func (s *Scratch) reset() {
	clear(s.occ)
	clear(s.dec)
	clear(s.decGen)
}

// SatCache memoizes trace satisfaction per realized trace.  Concurrent
// instances of one workflow realize a handful of distinct traces, so
// the engine resolves almost every outcome with one map lookup instead
// of a full dependency evaluation.  Safe for concurrent use.
type SatCache struct {
	mu sync.Mutex
	m  map[string]bool
}

// NewSatCache allocates an empty cache.
func NewSatCache() *SatCache {
	return &SatCache{m: map[string]bool{}}
}

// satisfied resolves whether the trace satisfies the workflow, keyed
// by the joined trace text.
func (c *SatCache) satisfied(w *core.Workflow, trace algebra.Trace, keys []string) bool {
	k := strings.Join(keys, " ")
	c.mu.Lock()
	v, ok := c.m[k]
	c.mu.Unlock()
	if ok {
		return v
	}
	v = core.SatisfiesAll(w, trace)
	c.mu.Lock()
	c.m[k] = v
	c.mu.Unlock()
	return v
}
