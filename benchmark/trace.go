package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/arun"
	"repro/internal/simnet"
)

// Span names.  A span's layer is the prefix before the dot.
const (
	spanBuild    = "arun.runner_build"
	spanRun      = "arun.run"
	spanHandle   = "actor.handle"
	spanSend     = "transport.send"
	spanIdleWait = "transport.idle_wait"
)

// span is one timed interval at a layer boundary.  Spans of one
// instance share Inst; Parent is the span that was open when this one
// began (0 for an instance's roots).  Times are nanoseconds since the
// tracer's epoch.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Inst   uint64 `json:"inst"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// cur is the span open on the driving goroutine.  Handlers a
	// transport runs on its own goroutines take it as their parent: the
	// serial drive only ever has handlers in flight while it sits inside
	// a Send or a WaitIdle.
	cur atomic.Int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, inst uint64, parent int32) int32 {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Inst: inst, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// driver runs f inside a span on the driving goroutine, making it the
// parent of whatever f causes.
func (t *tracer) driver(name string, inst uint64, f func()) {
	id := t.begin(name, inst, t.cur.Load())
	prev := t.cur.Swap(id)
	f()
	t.cur.Store(prev)
	t.end(id)
}

// add records an already-measured interval (the load generators' client
// spans).
func (t *tracer) add(name string, inst uint64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: int32(len(t.spans) + 1), Inst: inst, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedTransport wraps an arun.Transport from outside: every handler
// passed to Register, every Send and every WaitIdle becomes a span, and
// everything is forwarded unchanged.
type tracedTransport struct {
	arun.Transport
	t *tracer
	// inst tags the spans; the replay moves it between stages while the
	// transport is idle.
	inst atomic.Uint64
}

func (x *tracedTransport) Register(site simnet.SiteID, h func(n actor.Net, payload any)) {
	x.Transport.Register(site, func(n actor.Net, payload any) {
		id := x.t.begin(spanHandle, x.inst.Load(), x.t.cur.Load())
		h(&tracedNet{Net: n, x: x, parent: id}, payload)
		x.t.end(id)
	})
}

func (x *tracedTransport) Send(from, to simnet.SiteID, payload any) {
	x.t.driver(spanSend, x.inst.Load(), func() { x.Transport.Send(from, to, payload) })
}

func (x *tracedTransport) WaitIdle(timeout time.Duration) (idle bool) {
	x.t.driver(spanIdleWait, x.inst.Load(), func() { idle = x.Transport.WaitIdle(timeout) })
	return idle
}

// tracedNet is the actor.Net a traced handler sends through, so an
// actor's sends are children of the delivery that caused them.
type tracedNet struct {
	actor.Net
	x      *tracedTransport
	parent int32
}

func (n *tracedNet) Send(from, to simnet.SiteID, payload any) {
	id := n.x.t.begin(spanSend, n.x.inst.Load(), n.parent)
	n.Net.Send(from, to, payload)
	n.x.t.end(id)
}

// instTimes is one replayed instance's time by layer, in nanoseconds:
// self times, so build + run accounts for everything and run = drive +
// actor + transport.
type instTimes struct {
	build, run               float64
	actor, transport         float64
	sends, handled           int
	handleNS, sendNS, idleNS []float64
}

// driveSelf is what the drive loop itself cost: run time minus handler
// time minus transport time.
func (it *instTimes) driveSelf() float64 {
	return max(0, it.run-it.actor-it.transport)
}

// perInstance folds the spans into per-instance layer times.  A span's
// self time is its duration minus its direct children's durations
// (floored at zero: on a real mesh, handlers run concurrently with each
// other and can cover more than their parent's interval).
func (t *tracer) perInstance() map[uint64]*instTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.End - s.Start
	}
	out := map[uint64]*instTimes{}
	for _, s := range t.spans {
		switch s.Name {
		case spanBuild, spanRun, spanHandle, spanSend, spanIdleWait:
		default:
			continue
		}
		it := out[s.Inst]
		if it == nil {
			it = &instTimes{}
			out[s.Inst] = it
		}
		dur := float64(s.End - s.Start)
		self := max(0, dur-float64(children[s.ID]))
		switch s.Name {
		case spanBuild:
			it.build += dur
		case spanRun:
			it.run += dur
		case spanHandle:
			it.actor += self
			it.handled++
			it.handleNS = append(it.handleNS, self)
		case spanSend:
			it.transport += self
			it.sends++
			it.sendNS = append(it.sendNS, self)
		case spanIdleWait:
			it.transport += self
			it.idleNS = append(it.idleNS, self)
		}
	}
	return out
}
