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
	"repro/internal/symtab"
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
//
// NewPlan also gives every symbol of the plan its dense id
// (internal/symtab) and lowers everything a run touches onto it — the
// guard programs, the directory, the agents' scripts and the attempt
// messages — so a run decides on integers and every per-run structure
// is a slice sized once here.  Names come back only at the edges:
// external attempts, the wire, snapshots and the Outcome.
type Plan struct {
	sp *spec.Spec
	c  *core.Compiled
	// baseIDs are the ids of the workflow alphabet's bases, sorted by
	// name.
	baseIDs []symtab.ID
	// observe: the driver site is subscribed to every base and
	// registered as a message handler, and attempts carry it as
	// ReplyTo — the cross-process observation mode.  Without it the
	// runner observes through actor hooks instead: no observer
	// traffic at all, which single-process engines exploit.
	observe bool
	// dir places every event and holds the plan's symbol table: the
	// alphabet's bases in sorted order, then the extras, so two builds
	// of one spec assign the same ids.
	dir *actor.Directory
	tab *symtab.Table
	// actors lists every actor the plan installs: the alphabet's bases
	// in sorted order, then the out-of-alphabet extras.
	actors []actorPlan
	sites  []simnet.SiteID // sorted distinct actor sites
	// scripts are the spec's agents with every step's symbol resolved.
	scripts []script
	// attempts[forced][id] is the boxed attempt of id the driver sends:
	// an attempt's content is fixed by the plan, so a run sends one of
	// these instead of boxing a message per attempt.
	attempts [2][]any
}

// script is one agent's steps lowered onto the plan's ids.
type script struct {
	steps []step
}

// step is one spec.Step with its symbol's id.
type step struct {
	id       symtab.ID
	forced   bool
	think    simnet.Time
	onReject []step
}

// actorPlan is one actor's share of a plan: everything New needs,
// computed once.
type actorPlan struct {
	base algebra.Symbol
	site simnet.SiteID
	// prog is the compiled guard program, shared read-only across every
	// instance's actors (each actor derives its own mutable
	// gprog.State).  Extras share one ⊤/⊤ program.
	prog *gprog.Prog
	// trig lists the polarities the scheduler may cause proactively.
	trig []symtab.ID
}

// PlanOptions configure NewPlan.
type PlanOptions struct {
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
	c := opt.Compiled
	if c == nil {
		var err error
		if c, err = core.Compile(sp.Workflow); err != nil {
			return nil, err
		}
	}
	p := &Plan{
		sp: sp, c: c, observe: opt.Observe,
		dir: actor.NewDirectory(),
	}
	p.tab = p.dir.Table()
	bases, extras := alphabetAndExtras(sp)
	pl := sp.Placement()
	all := append(append([]algebra.Symbol{}, bases...), extras...)
	seenSite := map[simnet.SiteID]bool{}
	for _, b := range all {
		site := pl.SiteFor(b)
		if site == DefaultDriver {
			return nil, fmt.Errorf("arun: event %s placed on the driver site %q", b, DefaultDriver)
		}
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
			p.dir.Subscribe(b, DefaultDriver)
		}
	}
	sort.Slice(p.sites, func(i, j int) bool { return p.sites[i] < p.sites[j] })
	for _, b := range bases {
		id := p.tab.MustLookup(b)
		p.baseIDs = append(p.baseIDs, id)
		site := p.dir.Site(id)
		for _, polKey := range []string{b.Key(), b.Complement().Key()} {
			if eg := c.Guards[polKey]; eg != nil {
				for _, w := range eg.Watches {
					p.dir.Subscribe(w, site)
				}
			}
		}
	}
	// Lower the programs only now: the table is complete, so every
	// program's states have a slot for every plan symbol.
	for _, b := range bases {
		p.actors = append(p.actors, actorPlan{
			base: b, site: p.dir.Site(p.tab.MustLookup(b)),
			prog: gprog.CompileOn(p.tab, guardSpecFor(c, b), guardSpecFor(c, b.Complement())),
		})
	}
	top := gprog.GuardInput{Guard: temporal.TrueF()}
	extraProg := gprog.CompileOn(p.tab, top, top)
	for _, x := range extras {
		p.actors = append(p.actors, actorPlan{
			base: x, site: p.dir.Site(p.tab.MustLookup(x)), prog: extraProg,
		})
	}
	for _, ag := range sp.Agents {
		p.scripts = append(p.scripts, script{steps: p.lowerSteps(ag.Steps)})
	}
	var replyTo simnet.SiteID
	if p.observe {
		replyTo = DefaultDriver
	}
	for f := range p.attempts {
		p.attempts[f] = make([]any, p.tab.Len())
		for id := symtab.ID(2); int(id) < p.tab.Len(); id++ {
			p.attempts[f][id] = actor.AttemptMsg{ID: id, Forced: f == 1, ReplyTo: replyTo}
		}
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
		p.actors[i].trig = append(p.actors[i].trig, p.tab.MustLookup(s))
	}
	return p, nil
}

// lowerSteps resolves a script's symbols to the plan's ids.  Every
// step's event is placed (alphabetAndExtras walks the same scripts),
// so the lookups cannot miss.
func (p *Plan) lowerSteps(steps []spec.Step) []step {
	if len(steps) == 0 {
		return nil
	}
	out := make([]step, len(steps))
	for i, st := range steps {
		out[i] = step{
			id: p.tab.MustLookup(st.Sym), forced: st.Forced, think: st.Think,
			onReject: p.lowerSteps(st.OnReject),
		}
	}
	return out
}

// Symbols returns the plan's symbol table.
func (p *Plan) Symbols() *symtab.Table { return p.tab }

// Spec returns the spec the plan was built from (read-only by
// convention: plans are shared across concurrent runners).
func (p *Plan) Spec() *spec.Spec { return p.sp }

// Sites returns the plan's sorted distinct actor sites.
func (p *Plan) Sites() []simnet.SiteID {
	return append([]simnet.SiteID(nil), p.sites...)
}

// lookup resolves a symbol given by name to its id: the edge where an
// externally-named attempt enters the run.
func (p *Plan) lookup(s algebra.Symbol) (symtab.ID, error) {
	id, ok := p.tab.Lookup(s)
	if !ok {
		return symtab.None, fmt.Errorf("arun: no actor placed for event %s", s.Base())
	}
	return id, nil
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
	// their program states and trace scopes — and the runner's
	// observation state across runs (optional; see Scratch).
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
// the runner plus what Resume needs for deferred trace-scope
// attachment.
type runnerBuild struct {
	r      *Runner
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
	}
	scratch.reset(p)
	r := &Runner{
		tr: tr, plan: p, timeout: timeout,
		pipelined: opt.Pipelined, satCache: opt.SatCache,
		obsState: &scratch.obs,
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

	var set *Instance
	if opt.Hosted == nil && !quietTrace {
		set = scratch.instance(p, hooks, tracer, opt.Instance)
	} else {
		set = p.newInstance(opt.Hosted, hooks)
		if !quietTrace {
			set.attachScopes(tracer, opt.Instance)
		}
	}
	tr.UseSymbols(p.tab)
	for _, site := range set.sites {
		tr.Register(site, set.hosts[site].handler)
	}
	if p.observe && (opt.Hosted == nil || opt.Hosted(DefaultDriver)) {
		tr.Register(DefaultDriver, r.onDriverMsg)
	}
	r.set = set
	b := &runnerBuild{r: r, tracer: tracer, inst: opt.Instance}
	if sp, ok := tr.(snapshotable); ok {
		sp.SetSnapshotProvider(b.exportSite)
	}
	return b, nil
}

// Instance is one built instance of a plan: its site hosts and,
// aligned with Plan.actors, the actors they hold (nil where a site is
// not hosted).
type Instance struct {
	hosts  map[simnet.SiteID]*siteHost
	sites  []simnet.SiteID // sorted hosted sites
	actors []*actor.Actor
	// byEvent indexes the hosted actors by event, for the site hosts'
	// demultiplexing.
	byEvent []*actor.Actor
}

// Install builds a fresh instance of every site's actors, reporting
// to hooks and tracing into tracer under the instance tag inst.  It is
// how a run that hosts every site first builds its actors (a Scratch
// keeps them for the next run), and how internal/sched hosts a plan on
// the simulator beside its own agents.
func (p *Plan) Install(hooks *actor.Hooks, tracer *obs.Tracer, inst uint32) *Instance {
	set := p.newInstance(nil, hooks)
	set.attachScopes(tracer, inst)
	return set
}

// Handler returns the function that delivers a payload addressed to
// site to the instance's actors there, or nil when it hosts none.
func (set *Instance) Handler(site simnet.SiteID) func(actor.Net, any) {
	if h := set.hosts[site]; h != nil {
		return h.handler
	}
	return nil
}

// Actors lists the instance's actors in plan order: the alphabet's
// bases sorted, then the out-of-alphabet extras (nil where a site is
// not hosted).
func (set *Instance) Actors() []*actor.Actor { return set.actors }

// newInstance builds fresh actors for the hosted sites (nil hosts
// every site).
func (p *Plan) newInstance(hosted func(simnet.SiteID) bool, hooks *actor.Hooks) *Instance {
	set := &Instance{
		hosts:   make(map[simnet.SiteID]*siteHost, len(p.sites)),
		actors:  make([]*actor.Actor, len(p.actors)),
		byEvent: make([]*actor.Actor, p.tab.Events()+1),
	}
	perSite := make(map[simnet.SiteID]int, len(p.sites))
	for i := range p.actors {
		perSite[p.actors[i].site]++
	}
	for i := range p.actors {
		ap := &p.actors[i]
		if hosted != nil && !hosted(ap.site) {
			continue
		}
		a := actor.New(ap.base, ap.site, p.dir, hooks, ap.prog)
		for _, id := range ap.trig {
			a.SetTriggerable(id)
		}
		set.actors[i] = a
		set.byEvent[p.tab.MustLookup(ap.base).Event()] = a
		h, ok := set.hosts[ap.site]
		if !ok {
			h = &siteHost{site: ap.site, byEvent: set.byEvent,
				order: make([]*actor.Actor, 0, perSite[ap.site])}
			h.handler = h.deliver
			set.hosts[ap.site] = h
			set.sites = append(set.sites, ap.site)
		}
		h.order = append(h.order, a)
	}
	slices.Sort(set.sites)
	for _, h := range set.hosts {
		slices.SortFunc(h.order, func(a, b *actor.Actor) int {
			return strings.Compare(p.tab.Key(a.ID()), p.tab.Key(b.ID()))
		})
	}
	return set
}

// attachScopes gives every actor its trace scope for one instance.  A
// site's actors share one scope: they run on the site's goroutine, and
// a scope is fixed by its site and instance.
func (set *Instance) attachScopes(tracer *obs.Tracer, inst uint32) {
	for _, site := range set.sites {
		scope := tracer.Scope(string(site), inst)
		for _, a := range set.hosts[site].order {
			a.Trace = scope
		}
	}
}

// Scratch is the recyclable state of one run: the runner's observation
// state and, once a run has hosted every site, that run's whole
// instance — site hosts, actors, their program states and trace
// scopes.  The next run of the same plan (and tracer) resets
// those actors in place through actor.Reset, the initialiser New
// itself uses, instead of building them again; a run of another plan
// builds fresh and takes the scratch over.  internal/engine pools
// scratches so steady-state instance turnover allocates almost
// nothing.  A scratch serves one runner at a time: hand it to the next
// run only once the previous one is over and no message can still
// reach its actors.
type Scratch struct {
	obs obsState

	// runner is the run the hooks report to; the recycled actors keep
	// pointing at hooks, so it is the one thing retargeted per run.
	runner *Runner
	hooks  *actor.Hooks

	// set is the recycled instance, built by plan with tracer's scopes.
	set    *Instance
	plan   *Plan
	tracer *obs.Tracer
}

// NewScratch allocates an empty scratch.
func NewScratch() *Scratch {
	s := &Scratch{}
	s.hooks = &actor.Hooks{
		OnFire:     func(ann actor.AnnounceMsg, when simnet.Time) { s.runner.hookFire(ann, when) },
		OnDecision: func(d actor.DecisionMsg) { s.runner.hookDecision(d) },
	}
	return s
}

// reset empties the observation state, sized for the plan's ids.
func (s *Scratch) reset(p *Plan) {
	s.obs.reset(p.tab.Len(), len(p.baseIDs), len(p.scripts))
}

// instance returns the scratch's instance of the plan, reset for one
// more run, or — when the scratch holds none for this plan and tracer
// — builds every site's actors fresh and keeps them for the next run.
func (s *Scratch) instance(p *Plan, hooks *actor.Hooks, tracer *obs.Tracer, inst uint32) *Instance {
	if s.set == nil || s.plan != p || s.tracer != tracer {
		s.set, s.plan, s.tracer = p.Install(hooks, tracer, inst), p, tracer
		return s.set
	}
	for i, a := range s.set.actors {
		ap := &p.actors[i]
		a.Reset()
		for _, id := range ap.trig {
			a.SetTriggerable(id)
		}
		a.Trace.Retag(inst)
	}
	return s.set
}

// SatCache memoizes trace satisfaction per realized trace.  Concurrent
// instances of one workflow realize a handful of distinct traces, so
// the engine resolves almost every outcome with one lookup on the
// trace's ids instead of a full dependency evaluation.  Ids are
// plan-scoped but fixed by the spec — NewPlan numbers a spec's events
// in one order — so a cache serves the plans of one spec, a recompiled
// one included.  Safe for concurrent use.
type SatCache struct {
	mu sync.Mutex
	m  map[uint64][]satEntry
}

type satEntry struct {
	trace []symtab.ID
	sat   bool
}

// NewSatCache allocates an empty cache.
func NewSatCache() *SatCache {
	return &SatCache{m: map[uint64][]satEntry{}}
}

// satisfied resolves whether the trace — the plan's occurred ids in
// occurrence order — satisfies the workflow.
func (c *SatCache) satisfied(p *Plan, trace []symtab.ID) bool {
	k := uint64(14695981039346656037) // FNV-1a over the ids
	for _, id := range trace {
		k ^= uint64(id)
		k *= 1099511628211
	}
	c.mu.Lock()
	for _, e := range c.m[k] {
		if slices.Equal(e.trace, trace) {
			c.mu.Unlock()
			return e.sat
		}
	}
	c.mu.Unlock()
	v := core.SatisfiesAll(p.sp.Workflow, p.trace(trace))
	c.mu.Lock()
	c.m[k] = append(c.m[k], satEntry{trace: slices.Clone(trace), sat: v})
	c.mu.Unlock()
	return v
}

// trace names a trace of ids.
func (p *Plan) trace(ids []symtab.ID) algebra.Trace {
	t := make(algebra.Trace, len(ids))
	for i, id := range ids {
		t[i] = p.tab.Sym(id)
	}
	return t
}
