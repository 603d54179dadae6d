// Package serve is the long-lived workflow service: a registry of
// compiled plans (many named specs per tenant, compiled once, cached
// with LRU eviction), sharded instance execution placed by instance
// id modulo shard count, admission control with load-shedding, per-tenant durable
// journaling, and graceful drain.  cmd/wfserve wraps it in a daemon;
// the HTTP API and the wire-frame fast path share one port through
// the byte-sniffed mux (internal/obs).
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/arun"
	"repro/internal/spec"
)

// Error is a structured service failure: an HTTP status plus the spec
// position details clients need to fix a rejected upload.  Compile
// and parse failures surface as 4xx with line/event coordinates, not
// opaque 500s.
type Error struct {
	Status int    `json:"-"`
	Msg    string `json:"error"`
	Line   int    `json:"line,omitempty"`
	Col    int    `json:"col,omitempty"`
	Token  string `json:"token,omitempty"`
	Event  string `json:"event,omitempty"`
	// RetryAfter (seconds) accompanies 429 shed responses.
	RetryAfter int `json:"retryAfter,omitempty"`
}

func (e *Error) Error() string { return e.Msg }

// errf builds a plain structured error.
func errf(status int, format string, args ...any) *Error {
	return &Error{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// specError maps a spec/compile failure to a structured 4xx: parse
// errors carry their source line and offending event; plan build
// failures (bad placement, driver collision) are 422s with the
// compiler's message.
func specError(err error) *Error {
	var pe *spec.ParseError
	if errors.As(err, &pe) {
		return &Error{Status: 400, Msg: pe.Msg, Line: pe.Line, Col: pe.Col, Token: pe.Token, Event: pe.Event}
	}
	return &Error{Status: 422, Msg: err.Error()}
}

// PlanStats counts one plan's serving activity — the per-plan stats a
// multi-plan host attributes per named spec.
type PlanStats struct {
	Launched    atomic.Int64
	Completed   atomic.Int64
	Shed        atomic.Int64
	Announces   atomic.Int64
	Satisfied   atomic.Int64
	Unsatisfied atomic.Int64
}

// PlanEntry is one registered spec: the source of truth is the source
// text and parsed spec; the compiled plan is a cache entry that
// eviction may drop (recompiled on demand) while instances hold
// references.
type PlanEntry struct {
	Tenant, Name string
	Source       string
	Spec         *spec.Spec

	reg     *Registry
	mu      sync.Mutex
	plan    *arun.Plan
	sat     *arun.SatCache
	lastUse uint64
	active  int64 // instances holding the plan (guarded by mu)

	Stats PlanStats
}

// Registry is the tenant-scoped catalog of named plans.  Compiled
// plans are cached up to Cap; least-recently-used idle entries drop
// their compiled state (never the source) when the cache overflows.
type Registry struct {
	cap int

	mu      sync.Mutex
	entries map[string]*PlanEntry
	clock   uint64
}

// DefaultRegistryCap bounds cached compiled plans; far above any
// test workload, small enough that a spec-churning tenant cannot pin
// unbounded compiled state.
const DefaultRegistryCap = 64

// NewRegistry builds an empty registry caching up to cap compiled
// plans (DefaultRegistryCap when cap <= 0).
func NewRegistry(cap int) *Registry {
	if cap <= 0 {
		cap = DefaultRegistryCap
	}
	return &Registry{cap: cap, entries: map[string]*PlanEntry{}}
}

func regKey(tenant, name string) string { return tenant + "/" + name }

// Register parses, validates, and compiles a spec under a tenant and
// name.  Re-registering a name replaces the entry (new instances use
// the new spec; in-flight instances keep the plan they hold).  All
// failures are structured *Error values.
func (r *Registry) Register(tenant, name, source string) (*PlanEntry, *Error) {
	if name == "" {
		return nil, errf(400, "spec name required")
	}
	sp, err := spec.ParseString(source)
	if err != nil {
		return nil, specError(err)
	}
	// Compile immediately: registration is the moment to reject a spec
	// the runtime cannot place (e.g. an event on the driver site), and
	// the registrant gets the compiler's message at 4xx.
	plan, err := arun.NewPlan(sp, arun.PlanOptions{})
	if err != nil {
		return nil, specError(err)
	}
	e := &PlanEntry{
		Tenant: tenant, Name: name, Source: source, Spec: sp,
		reg: r, plan: plan, sat: arun.NewSatCache(),
	}
	r.mu.Lock()
	r.clock++
	e.lastUse = r.clock
	r.entries[regKey(tenant, name)] = e
	r.evictLocked()
	r.mu.Unlock()
	return e, nil
}

// Lookup returns a tenant's entry by name.
func (r *Registry) Lookup(tenant, name string) (*PlanEntry, *Error) {
	r.mu.Lock()
	e := r.entries[regKey(tenant, name)]
	r.mu.Unlock()
	if e == nil {
		return nil, errf(404, "spec %s not registered for tenant %s", name, tenant)
	}
	return e, nil
}

// List returns a tenant's entries sorted by name ("" lists all
// tenants).
func (r *Registry) List(tenant string) []*PlanEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*PlanEntry
	for _, e := range r.entries {
		if tenant == "" || e.Tenant == tenant {
			out = append(out, e)
		}
	}
	sortEntries(out)
	return out
}

// Acquire returns the entry's compiled plan and satisfaction cache,
// recompiling after an eviction, and pins the plan until release is
// called.  The registry's LRU clock advances on every acquire.
func (e *PlanEntry) Acquire() (*arun.Plan, *arun.SatCache, func(), *Error) {
	e.reg.mu.Lock()
	e.reg.clock++
	tick := e.reg.clock
	e.reg.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastUse = tick
	if e.plan == nil {
		plan, err := arun.NewPlan(e.Spec, arun.PlanOptions{})
		if err != nil {
			// Cannot happen for a spec that compiled at registration, but
			// surface it structurally rather than panicking.
			return nil, nil, nil, specError(err)
		}
		e.plan = plan
		mRecompiles.Inc()
	}
	e.active++
	plan, sat := e.plan, e.sat
	release := func() {
		e.mu.Lock()
		e.active--
		e.mu.Unlock()
	}
	return plan, sat, release, nil
}

// evictLocked drops compiled plans (never sources) from
// least-recently-used idle entries until at most cap remain compiled.
// Entries with active instances are never evicted.
func (r *Registry) evictLocked() {
	type cand struct {
		e    *PlanEntry
		tick uint64
	}
	var compiled []cand
	for _, e := range r.entries {
		e.mu.Lock()
		if e.plan != nil {
			compiled = append(compiled, cand{e, e.lastUse})
		}
		e.mu.Unlock()
	}
	if len(compiled) <= r.cap {
		return
	}
	// Oldest first.
	for i := 1; i < len(compiled); i++ {
		for j := i; j > 0 && compiled[j].tick < compiled[j-1].tick; j-- {
			compiled[j], compiled[j-1] = compiled[j-1], compiled[j]
		}
	}
	excess := len(compiled) - r.cap
	for _, c := range compiled {
		if excess == 0 {
			return
		}
		c.e.mu.Lock()
		if c.e.active == 0 && c.e.plan != nil {
			c.e.plan = nil
			mEvictions.Inc()
			excess--
		}
		c.e.mu.Unlock()
	}
}

// Compiled reports whether the entry currently holds a compiled plan
// (test hook for eviction behavior).
func (e *PlanEntry) Compiled() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.plan != nil
}

func sortEntries(es []*PlanEntry) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0; j-- {
			a, b := es[j-1], es[j]
			if a.Tenant < b.Tenant || (a.Tenant == b.Tenant && a.Name <= b.Name) {
				break
			}
			es[j-1], es[j] = es[j], es[j-1]
		}
	}
}
