package arun

import (
	"time"

	"repro/internal/actor"
	"repro/internal/netwire"
	"repro/internal/simnet"
	"repro/internal/symtab"
)

// SimTransport adapts the deterministic simulator to the Transport
// interface.  A run over it is bit-for-bit reproducible given the
// seed, which is what makes it the differential oracle: the same
// install and drive code produces a reference outcome the concurrent
// transports are compared against.  WaitIdle runs the virtual clock to
// quiescence, so "idle" is exact rather than observed.
type SimTransport struct {
	Net      *simnet.Network
	maxSteps int
}

// NewSimTransport builds a simulator-backed transport; fp (optional)
// installs the chaos schedule, under which the simulator also models
// the reliable link layer — retransmissions and receiver dedup — in
// virtual time.
func NewSimTransport(seed int64, fp *simnet.FaultPlan) *SimTransport {
	return NewSimTransportLat(simnet.DefaultLatency(), seed, fp)
}

// NewSimTransportLat is NewSimTransport with an explicit latency
// model.  internal/engine runs its per-instance simulators with tiny
// flat latencies (throughput mode) or widened jitter (interleaving
// stress) through this.
func NewSimTransportLat(lat simnet.LatencyModel, seed int64, fp *simnet.FaultPlan) *SimTransport {
	n := simnet.New(lat, seed)
	n.SetFaultPlan(fp)
	return &SimTransport{Net: n, maxSteps: 1_000_000}
}

// Register implements Transport.
func (s *SimTransport) Register(site simnet.SiteID, h func(n actor.Net, payload any)) {
	s.Net.AddSite(site, payloadHandler(h))
}

// payloadHandler hands a delivered payload to a transport handler;
// unlike a wrapping closure, it converts to a Handler without allocating.
type payloadHandler func(n actor.Net, payload any)

// Handle implements simnet.Handler.
func (h payloadHandler) Handle(n *simnet.Network, m simnet.Message) { h(n, m.Payload) }

// Send implements actor.Net.
func (s *SimTransport) Send(from, to simnet.SiteID, payload any) {
	s.Net.Send(from, to, payload)
}

// Now implements actor.Net.
func (s *SimTransport) Now() simnet.Time { return s.Net.Now() }

// NextOccurrence implements actor.Net.
func (s *SimTransport) NextOccurrence() int64 { return s.Net.NextOccurrence() }

// Clock implements actor.Net.
func (s *SimTransport) Clock() int64 { return s.Net.Clock() }

// WaitIdle drains the virtual event queue.
func (s *SimTransport) WaitIdle(time.Duration) bool {
	s.Net.Run(s.maxSteps)
	return s.Net.Idle()
}

// IdleNow drains the virtual event queue: the simulator runs on the
// caller's goroutine, so asking whether it is idle is what runs it.
func (s *SimTransport) IdleNow() bool { return s.WaitIdle(0) }

// IdleWait returns a closed channel: by the time a waiter could block,
// IdleNow has already run the simulator to quiescence.
func (s *SimTransport) IdleWait() (<-chan struct{}, func()) { return Closed, func() {} }

// Closed is the idle signal of a transport that is always idle once
// asked, because asking runs it to quiescence.
var Closed = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// UseSymbols implements Transport: simulated payloads never leave
// memory, so there are no names to resolve.
func (s *SimTransport) UseSymbols(*symtab.Table) {}

// Close implements Transport (no resources to release).
func (s *SimTransport) Close() {}

// Compile-time checks that the simulator adapter — and the TCP mesh
// itself — satisfy the Transport contract.
var (
	_ Transport = (*SimTransport)(nil)
	_ Transport = (*netwire.Mesh)(nil)
)
