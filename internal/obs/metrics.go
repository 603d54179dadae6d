// Package obs is the repository's observability layer: a
// dependency-free metrics registry (atomic counters, gauges, bounded
// histograms) and a structured decision tracer ordered by the
// transports' Lamport occurrence clock.
//
// Both halves follow the same discipline: recording must be cheap
// enough to leave compiled into the hot paths.  Counters and gauges
// are single atomic adds; histograms are an atomic add into a fixed
// bucket; the tracer's disabled fast path is one atomic load and no
// allocation, proven by a benchmark guard in trace_test.go.
//
// An atomic add is cheap only uncontended: every worker adding to one
// process-wide counter per message serializes on its cache line.  So a
// per-message count does not touch a Counter from the message path.
// It is tallied in plain fields owned by the goroutine doing the work
// and added once per unit of work — the actor.* counts once per
// instance (actor.Counts) — which keeps the totals exact.
//
// Everything else — snapshotting, diffing, JSON encoding, merge
// sorting — happens off the hot path, on whatever goroutine asks.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotone event count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, active instances).
type Gauge struct{ v atomic.Int64 }

// Add moves the level by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a bounded histogram with fixed bucket boundaries: an
// observation lands in the first bucket whose upper bound it does not
// exceed, or in the implicit overflow bucket.  Boundaries are fixed at
// registration, so observation is one binary search plus one atomic
// add — no locks, no allocation.
type Histogram struct {
	bounds  []int64 // ascending upper bounds (inclusive)
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Registry holds named metrics.  Registration (get-or-create) takes a
// mutex; the returned metric handles are lock-free, so hot paths
// register once in a package var and only ever touch atomics.
type Registry struct {
	mu sync.Mutex
	m  map[string]any // *Counter | *Gauge | *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{m: map[string]any{}} }

// Default is the process-wide registry the built-in instrumentation
// registers into; /debug/metrics and the CLI exporters read it.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.  It
// panics if the name is already registered as a different kind.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.m[name]; ok {
		c, ok := v.(*Counter)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q registered as %T, not counter", name, v))
		}
		return c
	}
	c := &Counter{}
	r.m[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.m[name]; ok {
		g, ok := v.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q registered as %T, not gauge", name, v))
		}
		return g
	}
	g := &Gauge{}
	r.m[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending upper bucket bounds on first use.  Later calls reuse the
// original bounds.
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.m[name]; ok {
		h, ok := v.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q registered as %T, not histogram", name, v))
		}
		return h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{bounds: append([]int64(nil), bounds...)}
	h.buckets = make([]atomic.Int64, len(bounds)+1)
	r.m[name] = h
	return h
}

// C, G, and H register into the Default registry — the one-liner form
// for package-level metric vars.
func C(name string) *Counter { return Default.Counter(name) }

// G registers a gauge in the Default registry.
func G(name string) *Gauge { return Default.Gauge(name) }

// H registers a histogram in the Default registry.
func H(name string, bounds ...int64) *Histogram { return Default.Histogram(name, bounds...) }

// Metric is one metric's frozen state inside a Snapshot.
type Metric struct {
	Kind  string // "counter", "gauge", or "histogram"
	Value int64  // counter count or gauge level
	// Histogram state; Bounds has one fewer entry than Buckets (the
	// last bucket is the overflow).
	Count, Sum int64
	Bounds     []int64
	Buckets    []int64
}

// Snapshot is a point-in-time copy of a registry, safe to read and
// diff while the live metrics keep moving.
type Snapshot struct {
	Metrics map[string]Metric
}

// Snapshot freezes the registry.  Multi-word metrics (histograms) are
// read field-by-field without a global lock, so a snapshot taken
// mid-update may be off by in-flight observations — each field is
// still individually consistent, which is all diffing needs.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.m))
	handles := make([]any, 0, len(r.m))
	for name, v := range r.m {
		names = append(names, name)
		handles = append(handles, v)
	}
	r.mu.Unlock()

	s := Snapshot{Metrics: make(map[string]Metric, len(names))}
	for i, name := range names {
		switch v := handles[i].(type) {
		case *Counter:
			s.Metrics[name] = Metric{Kind: "counter", Value: v.Value()}
		case *Gauge:
			s.Metrics[name] = Metric{Kind: "gauge", Value: v.Value()}
		case *Histogram:
			m := Metric{
				Kind:   "histogram",
				Count:  v.count.Load(),
				Sum:    v.sum.Load(),
				Bounds: append([]int64(nil), v.bounds...),
			}
			m.Buckets = make([]int64, len(v.buckets))
			for j := range v.buckets {
				m.Buckets[j] = v.buckets[j].Load()
			}
			s.Metrics[name] = m
		}
	}
	return s
}

// Get returns one metric from the snapshot.
func (s Snapshot) Get(name string) (Metric, bool) {
	m, ok := s.Metrics[name]
	return m, ok
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of a histogram metric
// by linear interpolation inside the bucket holding the target rank:
// the usual bounded-histogram estimator, exact at bucket boundaries
// and within one bucket's width elsewhere.  Observations in the
// overflow bucket report the last finite bound (the estimator cannot
// see past it).  Returns 0 for empty or non-histogram metrics.
func (m Metric) Quantile(q float64) float64 {
	if m.Kind != "histogram" || m.Count <= 0 || len(m.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(m.Count)
	var cum int64
	for i, b := range m.Buckets {
		prev := cum
		cum += b
		if float64(cum) < rank {
			continue
		}
		if i >= len(m.Bounds) {
			return float64(m.Bounds[len(m.Bounds)-1])
		}
		lo := float64(0)
		if i > 0 {
			lo = float64(m.Bounds[i-1])
		}
		hi := float64(m.Bounds[i])
		if b == 0 {
			return hi
		}
		frac := (rank - float64(prev)) / float64(b)
		return lo + frac*(hi-lo)
	}
	return float64(m.Bounds[len(m.Bounds)-1])
}

// Diff returns this snapshot minus an earlier one: counters and
// histogram counts subtract (the work done in between), gauges keep
// their current level (a level has no meaningful delta).  Metrics
// absent from the earlier snapshot diff against zero.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := Snapshot{Metrics: make(map[string]Metric, len(s.Metrics))}
	for name, cur := range s.Metrics {
		old, ok := prev.Metrics[name]
		if !ok || old.Kind != cur.Kind {
			old = Metric{}
		}
		switch cur.Kind {
		case "counter":
			cur.Value -= old.Value
		case "histogram":
			cur.Count -= old.Count
			cur.Sum -= old.Sum
			buckets := append([]int64(nil), cur.Buckets...)
			for i := range buckets {
				if i < len(old.Buckets) {
					buckets[i] -= old.Buckets[i]
				}
			}
			cur.Buckets = buckets
		}
		out.Metrics[name] = cur
	}
	return out
}

// WriteJSON writes the snapshot as one JSON object, metrics sorted by
// name — a deterministic, dependency-free encoding for /debug/metrics
// and the CLI exporters.
func (s Snapshot) WriteJSON(w io.Writer) error {
	names := make([]string, 0, len(s.Metrics))
	for name := range s.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	buf := []byte("{")
	for i, name := range names {
		if i > 0 {
			buf = append(buf, ',')
		}
		m := s.Metrics[name]
		buf = strconv.AppendQuote(buf, name)
		buf = append(buf, `:{"kind":`...)
		buf = strconv.AppendQuote(buf, m.Kind)
		switch m.Kind {
		case "histogram":
			buf = append(buf, `,"count":`...)
			buf = strconv.AppendInt(buf, m.Count, 10)
			buf = append(buf, `,"sum":`...)
			buf = strconv.AppendInt(buf, m.Sum, 10)
			buf = append(buf, `,"bounds":`...)
			buf = appendInts(buf, m.Bounds)
			buf = append(buf, `,"buckets":`...)
			buf = appendInts(buf, m.Buckets)
		default:
			buf = append(buf, `,"value":`...)
			buf = strconv.AppendInt(buf, m.Value, 10)
		}
		buf = append(buf, '}')
	}
	buf = append(buf, "}\n"...)
	_, err := w.Write(buf)
	return err
}

func appendInts(dst []byte, vs []int64) []byte {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, v, 10)
	}
	return append(dst, ']')
}
