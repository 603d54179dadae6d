package arun

import (
	"fmt"
	"slices"
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
// parsing; NewRunner then instantiates actors against the shared plan
// (or resets a recycled set of them, see Scratch), which is what lets
// internal/engine run hundreds of concurrent instances of one workflow
// without recompiling or re-placing per instance.  A Plan is immutable
// after NewPlan and safe for concurrent NewRunner calls.
type Plan struct {
	sp    *spec.Spec
	c     *core.Compiled
	bases []algebra.Symbol
	// observe: the driver site is subscribed to every base and
	// registered as a message handler, and attempts carry it as
	// ReplyTo — the cross-process observation mode.  Without it the
	// runner observes through actor hooks instead: no observer
	// traffic at all, which single-process engines exploit.
	observe bool
	driver  simnet.SiteID
	dir     *actor.Directory
	siteOf  map[string]simnet.SiteID // base key → actor site
	// actors lists every actor the plan installs: the alphabet's bases
	// in sorted order, then the out-of-alphabet extras.
	actors []actorPlan
	sites  []simnet.SiteID // sorted distinct actor sites
}

// actorPlan is one actor's share of a plan: everything New, Reset and
// AttachProgram need, computed once.
type actorPlan struct {
	base     algebra.Symbol
	site     simnet.SiteID
	pos, neg actor.GuardSpec
	// prog is the compiled guard program, shared read-only across every
	// instance's actors (each actor derives its own mutable
	// gprog.State).  Extras share one ⊤/⊤ program.
	prog *gprog.Prog
	// trig lists the polarities the scheduler may cause proactively.
	trig []algebra.Symbol
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
	}
	var extras []algebra.Symbol
	p.bases, extras = alphabetAndExtras(sp)
	pl := sp.Placement()
	all := append(append([]algebra.Symbol{}, p.bases...), extras...)
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
		p.actors = append(p.actors, actorPlan{
			base: b, site: site, pos: pos, neg: neg,
			prog: gprog.Compile(
				gprog.GuardInput{Guard: pos.Guard, LocalNeg: pos.LocalNeg},
				gprog.GuardInput{Guard: neg.Guard, LocalNeg: neg.LocalNeg}),
		})
	}
	top := actor.GuardSpec{Guard: temporal.TrueF()}
	extraProg := gprog.Compile(gprog.GuardInput{Guard: top.Guard}, gprog.GuardInput{Guard: top.Guard})
	for _, x := range extras {
		p.actors = append(p.actors, actorPlan{
			base: x, site: p.siteOf[x.Key()], pos: top, neg: top, prog: extraProg,
		})
	}
	for _, key := range sp.Triggerable() {
		s, err := algebra.ParseSymbol(key)
		if err != nil {
			return nil, fmt.Errorf("arun: triggerable %q: %w", key, err)
		}
		i := slices.IndexFunc(p.actors, func(ap actorPlan) bool { return ap.base.SameEvent(s) })
		if i < 0 {
			return nil, fmt.Errorf("arun: triggerable %q has no actor", key)
		}
		p.actors[i].trig = append(p.actors[i].trig, s)
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
	// arrives (or the transport goes idle with it undecided) instead of
	// waiting for the whole transport to go idle; full quiescence is
	// only established when the drive appears to stall and once at the
	// end of the run.  It changes interleavings — sound for confluent
	// workflows (see DESIGN.md decision 13).
	Pipelined bool
	// Scratch recycles a whole built instance — site hosts, actors,
	// their program states, knowledge maps and trace scopes — and the
	// runner's observation maps across runs (optional; see Scratch).
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

// NewRunner instantiates the plan's actors on a transport: fresh
// ones, or the set a Scratch recycles.  Unless the plan observes
// through the driver site, the runner registers hooks on its actors
// and observes fires and decisions in-process.
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
// re-emitted) and attaches the scopes afterwards.  A run that hosts
// every site with live scopes takes its actors from the scratch;
// Resume and a Hosted subset (wfnet workers) always build fresh.
func (p *Plan) build(tr Transport, opt RunnerOptions, quietTrace bool) (*runnerBuild, error) {
	timeout := opt.IdleTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	scratch := opt.Scratch
	if scratch == nil {
		scratch = NewScratch()
	} else {
		scratch.reset()
	}
	r := &Runner{
		tr: tr, plan: p, driver: p.driver, timeout: timeout,
		pipelined: opt.Pipelined, satCache: opt.SatCache,
		occ: scratch.occ, dec: scratch.dec, decGen: scratch.decGen,
	}
	var hooks *actor.Hooks
	if !p.observe {
		scratch.runner = r
		hooks = scratch.hooks
	}
	tracer := opt.Tracer
	if tracer == nil {
		tracer = obs.Shared()
	}

	var set *instanceSet
	if opt.Hosted == nil && !quietTrace {
		set = scratch.instance(p, hooks, tracer, opt.Instance)
	} else {
		set = p.newInstanceSet(opt.Hosted, hooks)
		if !quietTrace {
			set.attachScopes(tracer, opt.Instance)
		}
	}
	for _, site := range set.sites {
		tr.Register(site, set.hosts[site].handler)
	}
	if p.observe && (opt.Hosted == nil || opt.Hosted(p.driver)) {
		tr.Register(p.driver, r.onDriverMsg)
	}
	r.hosts = set.hosts
	b := &runnerBuild{r: r, hosts: set.hosts, tracer: tracer, inst: opt.Instance}
	if sp, ok := tr.(snapshotable); ok {
		sp.SetSnapshotProvider(b.exportSite)
	}
	return b, nil
}

// instanceSet is one built instance: its site hosts and, aligned with
// Plan.actors, the actors they hold (nil where a site is not hosted).
type instanceSet struct {
	hosts  map[simnet.SiteID]*siteHost
	sites  []simnet.SiteID // sorted hosted sites
	actors []*actor.Actor
}

// newInstanceSet builds fresh actors for the hosted sites (nil hosts
// every site).
func (p *Plan) newInstanceSet(hosted func(simnet.SiteID) bool, hooks *actor.Hooks) *instanceSet {
	set := &instanceSet{hosts: map[simnet.SiteID]*siteHost{}, actors: make([]*actor.Actor, len(p.actors))}
	for i := range p.actors {
		ap := &p.actors[i]
		if hosted != nil && !hosted(ap.site) {
			continue
		}
		a := actor.New(ap.base, ap.site, p.dir, hooks, ap.pos, ap.neg)
		a.AttachProgram(ap.prog)
		for _, s := range ap.trig {
			a.SetTriggerable(s)
		}
		set.actors[i] = a
		h, ok := set.hosts[ap.site]
		if !ok {
			h = &siteHost{site: ap.site, actors: map[string]*actor.Actor{}}
			h.handler = h.deliver
			set.hosts[ap.site] = h
			set.sites = append(set.sites, ap.site)
		}
		h.add(a)
	}
	sort.Slice(set.sites, func(i, j int) bool { return set.sites[i] < set.sites[j] })
	for _, h := range set.hosts {
		sort.Strings(h.order)
	}
	return set
}

// attachScopes gives every actor its trace scope for one instance.
func (set *instanceSet) attachScopes(tracer *obs.Tracer, inst uint32) {
	for _, a := range set.actors {
		if a != nil {
			a.Trace = tracer.Scope(string(a.Site()), inst)
		}
	}
}

// Scratch is the recyclable state of one run: the runner's observation
// maps and, once a run has hosted every site, that run's whole
// instance — site hosts, actors, their program states, knowledge maps
// and trace scopes.  The next run of the same plan (and tracer) resets
// those actors in place through actor.Reset, the initialiser New
// itself uses, instead of building them again; a run of another plan
// builds fresh and takes the scratch over.  internal/engine pools
// scratches so steady-state instance turnover allocates almost
// nothing.  A scratch serves one runner at a time: hand it to the next
// run only once the previous one is over and no message can still
// reach its actors.
type Scratch struct {
	occ    map[string]occRec
	dec    map[string]actor.DecisionMsg
	decGen map[string]uint64

	// runner is the run the hooks report to; the recycled actors keep
	// pointing at hooks, so it is the one thing retargeted per run.
	runner *Runner
	hooks  *actor.Hooks

	// set is the recycled instance, built by plan with tracer's scopes.
	set    *instanceSet
	plan   *Plan
	tracer *obs.Tracer
}

// NewScratch allocates an empty scratch.
func NewScratch() *Scratch {
	s := &Scratch{
		occ:    map[string]occRec{},
		dec:    map[string]actor.DecisionMsg{},
		decGen: map[string]uint64{},
	}
	s.hooks = &actor.Hooks{
		OnFire:     func(sym algebra.Symbol, at int64, when simnet.Time) { s.runner.hookFire(sym, at, when) },
		OnDecision: func(d actor.DecisionMsg) { s.runner.hookDecision(d) },
	}
	return s
}

func (s *Scratch) reset() {
	clear(s.occ)
	clear(s.dec)
	clear(s.decGen)
}

// instance returns the scratch's instance of the plan, reset for one
// more run, or — when the scratch holds none for this plan and tracer
// — builds every site's actors fresh and keeps them for the next run.
func (s *Scratch) instance(p *Plan, hooks *actor.Hooks, tracer *obs.Tracer, inst uint32) *instanceSet {
	if s.set == nil || s.plan != p || s.tracer != tracer {
		s.set, s.plan, s.tracer = p.newInstanceSet(nil, hooks), p, tracer
		s.set.attachScopes(tracer, inst)
		return s.set
	}
	for i, a := range s.set.actors {
		ap := &p.actors[i]
		a.Reset(ap.pos, ap.neg)
		for _, sym := range ap.trig {
			a.SetTriggerable(sym)
		}
		a.Trace.Retag(inst)
	}
	return s.set
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
