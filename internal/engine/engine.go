// Package engine executes many concurrent instances of one workflow:
// the multi-instance throughput layer over internal/arun.
//
// The serial drivers (cmd/wfrun, internal/bench) run one instance at a
// time and re-establish global quiescence after every attempt — sound,
// deterministic, and slow: the whole mesh stops between attempts, and
// every instance pays compilation and placement again.  This engine
// amortizes everything that does not depend on the run:
//
//   - one arun.Plan per workload: the workflow is compiled once, the
//     directory and guard specs are built once, and every instance's
//     actors run against the shared, read-only plan;
//   - per-instance completion: instances observe decisions through
//     actor hooks and (on the wire transport) complete attempts when
//     their own decision resolves, not when the whole mesh goes idle —
//     internal/quiesce is demoted to a per-instance settle at the end
//     of each run (DESIGN.md, decision 13);
//   - a bounded worker pool sharded by instance ID, recycling each
//     finished instance whole (arun.Scratch: site hosts, actors, their
//     program states and trace scopes, reset in place for the next
//     instance) and, in sim mode, each worker's simulator (reset and
//     re-seeded per instance), and sharing a trace satisfaction cache
//     across instances;
//   - on the wire transport, all instances share one TCP mesh: frames
//     carry an actor.Instanced envelope, each node demultiplexes on
//     the instance number, and the batched announcement fan-out of
//     internal/netwire coalesces the interleaved traffic.
//
// Every instance still produces a full arun.Outcome; the engine
// aggregates their fingerprints, which is what the differential chaos
// tests compare against the single-instance simnet oracle.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/actor"
	"repro/internal/arun"
	"repro/internal/netwire"
	"repro/internal/obs"
	"repro/internal/quiesce"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/symtab"
)

// Mode selects the transport the instances run on.
type Mode int

const (
	// ModeSim runs each instance on its worker's deterministic
	// simulator, reset for it (virtual time, zero wall-clock latency):
	// the throughput mode and the oracle for the chaos tests.
	ModeSim Mode = iota
	// ModeNet runs all instances over one shared loopback TCP mesh
	// with instance-tagged frames.
	ModeNet
)

// Options configure an engine run.  The plan is not among them: Run
// compiles one from the spec, and RunPlan takes one already built.
type Options struct {
	// Instances is the number of workflow instances to execute
	// (default 1).
	Instances int
	// Workers bounds concurrent instances.  Default: GOMAXPROCS for
	// ModeSim (CPU-bound virtual time), min(Instances, 32) for ModeNet
	// (latency-bound wire traffic).
	Workers int
	// Mode selects the transport (default ModeSim).
	Mode Mode
	// Seed makes sim runs deterministic; instance i uses Seed+i.
	Seed int64
	// Fault, when set, applies the chaos schedule — per instance on
	// sim, on the shared mesh links for net.
	Fault *simnet.FaultPlan
	// IdleTimeout bounds each instance's waits (default 15s).
	IdleTimeout time.Duration
	// Jitter widens the per-instance sim latency jitter (µs) so
	// message races genuinely vary across instances — the stress-test
	// knob.  Zero keeps the tight throughput latencies.
	Jitter simnet.Time
	// KeepOutcomes retains every instance's full outcome in the
	// result (costs memory at large N).
	KeepOutcomes bool
	// Tracer receives every instance's decision records, tagged with
	// the instance ID; nil falls back to obs.Shared().
	Tracer *obs.Tracer
	// WALRoot, on ModeNet, gives every mesh node a write-ahead log
	// under WALRoot/<site>.  Multi-instance replay recovery is not
	// supported: the log records durability costs (and watermark
	// checkpoints when CheckpointEvery is set) but a crashed engine run
	// is re-run, not resumed.
	WALRoot string
	// WALNoSync skips per-batch fsync in WAL mode.
	WALNoSync bool
	// CheckpointEvery enables periodic watermark checkpoints per node
	// in WAL mode.
	CheckpointEvery time.Duration
}

// Result aggregates an engine run.
type Result struct {
	Instances, Workers int
	Elapsed            time.Duration
	// Fires and Decisions sum the instances' observed announcements
	// and decisions.
	Fires, Decisions int64
	// Fingerprints counts instances per outcome fingerprint; a
	// confluent workload has exactly one key.
	Fingerprints map[string]int
	// Outcomes holds each instance's outcome when KeepOutcomes is set,
	// indexed by instance ID.
	Outcomes []*arun.Outcome
	// Batches and BatchedFrames report the mesh's outbound coalescing
	// on ModeNet (zero on ModeSim): batch frames written and the
	// logical DATA records they carried.
	Batches, BatchedFrames int64
	// WALSyncs counts completed fsync batches across the mesh's node
	// logs (zero without WALRoot): appends/WALSyncs is the achieved
	// group-commit width.
	WALSyncs int64
}

// InstancesPerSec is the headline throughput rate.
func (r *Result) InstancesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Instances) / r.Elapsed.Seconds()
}

// FiresPerSec is the announcement (event occurrence) rate.
func (r *Result) FiresPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Fires) / r.Elapsed.Seconds()
}

// Run compiles the spec into a plan, executes opt.Instances instances
// of it and aggregates the outcomes.  A host that keeps a plan live
// across runs calls RunPlan instead.
func Run(sp *spec.Spec, opt Options) (*Result, error) {
	plan, err := arun.NewPlan(sp, arun.PlanOptions{})
	if err != nil {
		return nil, err
	}
	return RunPlan(plan, opt)
}

// RunPlan executes opt.Instances instances of a pre-built plan and
// aggregates the outcomes — the entry point for hosts that keep many
// compiled plans live at once (internal/serve's registry) and pay
// compilation once per spec, not once per run.
func RunPlan(plan *arun.Plan, opt Options) (*Result, error) {
	if opt.Instances <= 0 {
		opt.Instances = 1
	}
	if opt.IdleTimeout <= 0 {
		opt.IdleTimeout = 15 * time.Second
	}
	workers := opt.Workers
	if workers <= 0 {
		if opt.Mode == ModeNet {
			workers = min(opt.Instances, 32)
		} else {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	workers = min(workers, opt.Instances)

	var eng *netEngine
	if opt.Mode == ModeNet {
		var err error
		eng, err = newNetEngine(plan, opt)
		if err != nil {
			return nil, err
		}
		defer eng.close()
	}

	satCache := arun.NewSatCache()
	scratch := sync.Pool{New: func() any { return arun.NewScratch() }}
	outcomes := make([]*arun.Outcome, opt.Instances)
	errs := make([]error, workers)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sim := newWorkerSim(opt) // unused on ModeNet
			for idx := w; idx < opt.Instances; idx += workers {
				sc := scratch.Get().(*arun.Scratch)
				out, err := runOne(plan, eng, sim, sc, satCache, idx, opt)
				// The scratch goes back only after runOne returned, and
				// so after its deferred eng.remove(inst): the next
				// instance resets these very actors, and that is safe
				// because a successful run ends on WaitIdle — the
				// instance is removed at zero pending, so no in-flight
				// message can reach a recycled actor.  A failed run may
				// still have messages in flight; its scratch is dropped.
				if err != nil {
					if errs[w] == nil {
						errs[w] = fmt.Errorf("instance %d: %w", idx, err)
					}
					return
				}
				scratch.Put(sc)
				outcomes[idx] = out
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res := &Result{
		Instances:    opt.Instances,
		Workers:      workers,
		Elapsed:      elapsed,
		Fingerprints: map[string]int{},
	}
	for _, out := range outcomes {
		res.Fires += int64(out.Announcements)
		res.Decisions += int64(out.Decisions)
		res.Fingerprints[out.Fingerprint()]++
	}
	planCounter(plan.Spec().Name).Add(int64(opt.Instances))
	if eng != nil {
		res.Batches, res.BatchedFrames = eng.mesh.BatchStats()
		res.WALSyncs = eng.mesh.WALSyncs()
	}
	if opt.KeepOutcomes {
		res.Outcomes = outcomes
	}
	return res, nil
}

// runOne executes a single instance on its transport: the shared mesh
// when eng is set, else the worker's simulator, reset for the instance.
func runOne(plan *arun.Plan, eng *netEngine, sim *simXport, sc *arun.Scratch, sat *arun.SatCache, idx int, opt Options) (*arun.Outcome, error) {
	started := time.Now()
	ropt := arun.RunnerOptions{
		IdleTimeout: opt.IdleTimeout,
		Scratch:     sc,
		SatCache:    sat,
		Tracer:      opt.Tracer,
		Instance:    uint32(idx),
	}
	var tr arun.Transport
	if eng != nil {
		inst := eng.newInstance(uint32(idx))
		defer eng.remove(inst)
		tr = inst.transport()
		ropt.Pipelined = true
	} else {
		sim.Net.Reset(opt.Seed + int64(idx))
		tr = sim
	}
	defer tr.Close()
	r, err := plan.NewRunner(tr, ropt)
	if err != nil {
		return nil, err
	}
	out, err := r.Run()
	if err == nil {
		mInstances.Inc()
		mInstanceUS.Observe(time.Since(started).Microseconds())
	}
	return out, err
}

// newWorkerSim builds the simulator a worker resets for each of its
// instances, on the serial oracle's latency model — virtual time costs
// nothing, and keeping the local≪remote ratio keeps within-attempt
// message races resolving as they do on the reference runs.  Jitter
// widens the seeded variation on top.
func newWorkerSim(opt Options) *simXport {
	lat := simnet.DefaultLatency()
	lat.Jitter += opt.Jitter
	return &simXport{arun.NewSimTransportLat(lat, opt.Seed, opt.Fault)}
}

// SimTransport builds the per-instance simulator transport the
// engine's sim mode runs on: default latency model, direct driver
// injection.  Hosting layers (internal/serve) reuse it so a hosted
// instance at seed s reproduces the engine's fingerprint at seed s —
// the sim oracle and the served verdict are the same deterministic
// function of the seed.
func SimTransport(seed int64) arun.Transport {
	return &simXport{arun.NewSimTransport(seed, nil)}
}

// simXport wraps the simulator transport with direct driver
// injection: the driver only ever sends while its instance's
// simulator is idle (between attempts), so handing the attempt
// straight to the target site's handler — instead of queueing it,
// stepping the clock, and re-checking quiescence — is
// indistinguishable to the actors and saves the driver-bound hop on
// every attempt.
type simXport struct {
	*arun.SimTransport
}

func (x *simXport) Send(from, to simnet.SiteID, payload any) {
	if x.Net.Handler(from) == nil {
		// Driver-originated: inject inline.
		if h := x.Net.Handler(to); h != nil {
			h.Handle(x.Net, simnet.Message{From: from, To: to, Payload: payload})
			return
		}
	}
	x.SimTransport.Send(from, to, payload)
}

// netEngine shares one TCP mesh among all instances: per-site
// demultiplexers route actor.Instanced envelopes to the owning
// instance's actors and account the instance's in-flight messages.
type netEngine struct {
	plan *arun.Plan
	mesh *netwire.Mesh

	mu        sync.RWMutex
	instances map[uint32]*instance
}

func newNetEngine(plan *arun.Plan, opt Options) (*netEngine, error) {
	mesh, err := netwire.NewMeshOpts(arun.DefaultDriver, plan.Sites(), netwire.MeshOptions{
		Fault:           opt.Fault,
		WALRoot:         opt.WALRoot,
		NoSync:          opt.WALNoSync,
		CheckpointEvery: opt.CheckpointEvery,
	})
	if err != nil {
		return nil, err
	}
	mesh.UseSymbols(plan.Symbols())
	e := &netEngine{plan: plan, mesh: mesh, instances: map[uint32]*instance{}}
	for _, site := range plan.Sites() {
		e.mesh.Register(site, e.siteHandler(site))
	}
	return e, nil
}

func (e *netEngine) close() { e.mesh.Close() }

// siteHandler is the one handler a mesh node runs for a site: it
// unwraps the instance envelope and dispatches to that instance's
// actors.  Traffic for unknown instances is dropped — it cannot occur
// for live instances (an instance is only removed once its pending
// count reads zero, and every in-flight message is counted), so
// anything unmatched is foreign.
func (e *netEngine) siteHandler(site simnet.SiteID) func(actor.Net, any) {
	return func(_ actor.Net, p any) {
		env, ok := p.(actor.Instanced)
		if !ok {
			return
		}
		e.mu.RLock()
		inst := e.instances[env.Inst]
		var h func(actor.Net, any)
		var net actor.Net
		if inst != nil {
			h = inst.handlers[site]
			net = inst.nets[site]
		}
		e.mu.RUnlock()
		if inst == nil {
			return
		}
		if h != nil {
			h(net, env.Msg)
		}
		// The pending interval of a message closes only after its
		// handler returned, so any messages the handler sent are
		// already counted — the overlap that makes a single zero
		// observation of the tracker sound.
		inst.pend.Done()
	}
}

func (e *netEngine) newInstance(id uint32) *instance {
	inst := &instance{
		e:        e,
		id:       id,
		handlers: map[simnet.SiteID]func(actor.Net, any){},
		nets:     map[simnet.SiteID]actor.Net{},
	}
	e.mu.Lock()
	e.instances[id] = inst
	e.mu.Unlock()
	return inst
}

func (e *netEngine) remove(inst *instance) {
	e.mu.Lock()
	delete(e.instances, inst.id)
	e.mu.Unlock()
}

// instance is one workflow instance's state on the shared mesh.
type instance struct {
	e    *netEngine
	id   uint32
	pend quiesce.NotifyTracker

	// handlers/nets are written during NewRunner (before any message
	// flows) and read by site handlers under the engine lock.
	handlers map[simnet.SiteID]func(actor.Net, any)
	nets     map[simnet.SiteID]actor.Net
}

// send wraps a payload in the instance envelope and counts it as
// pending until the receiving handler returns.
func (inst *instance) send(from, to simnet.SiteID, payload any) {
	inst.pend.Add(1)
	inst.e.mesh.Send(from, to, actor.Instanced{Inst: inst.id, Msg: payload})
}

// siteNet is the actor.Net a site's actors see: instance-tagged
// sends, clocks from the site's own node (so occurrence indices keep
// their causal Lamport order).
type siteNet struct {
	inst *instance
	node *netwire.Node
}

func (s *siteNet) Send(from, to simnet.SiteID, payload any) { s.inst.send(from, to, payload) }
func (s *siteNet) Now() simnet.Time                         { return s.node.Now() }
func (s *siteNet) NextOccurrence() int64                    { return s.node.NextOccurrence() }
func (s *siteNet) Clock() int64                             { return s.node.Clock() }

// instXport is the arun.Transport the instance's runner drives:
// registration binds into the shared demultiplexers, and WaitIdle
// watches only this instance's pending count — per-instance
// completion instead of mesh-wide quiescence.
type instXport struct {
	inst *instance
}

func (inst *instance) transport() *instXport {
	return &instXport{inst: inst}
}

func (x *instXport) Register(site simnet.SiteID, h func(n actor.Net, payload any)) {
	e := x.inst.e
	e.mu.Lock()
	x.inst.handlers[site] = h
	x.inst.nets[site] = &siteNet{inst: x.inst, node: e.mesh.Node(site)}
	e.mu.Unlock()
}

func (x *instXport) Send(from, to simnet.SiteID, payload any) { x.inst.send(from, to, payload) }

func (x *instXport) Now() simnet.Time { return x.inst.e.mesh.Now() }

func (x *instXport) NextOccurrence() int64 { return x.inst.e.mesh.NextOccurrence() }

func (x *instXport) Clock() int64 { return x.inst.e.mesh.Clock() }

// WaitIdle blocks until this instance has no in-flight messages,
// sleeping until a completion pulse instead of polling.  A single zero
// observation suffices (see siteHandler).
func (x *instXport) WaitIdle(timeout time.Duration) bool {
	return x.inst.pend.WaitIdle(timeout)
}

// IdleNow and IdleWait expose the tracker's event-driven idle signal
// (arun.Transport): the runner's per-attempt wait selects on it
// alongside the decision gate, so a parked instance is detected the
// instant its last in-flight message completes.
func (x *instXport) IdleNow() bool { return x.inst.pend.IdleNow() }

func (x *instXport) IdleWait() (<-chan struct{}, func()) { return x.inst.pend.IdleWait() }

// UseSymbols implements arun.Transport.  The shared mesh resolves
// against the plan's table, which newNetEngine gives it once.
func (x *instXport) UseSymbols(*symtab.Table) {}

// Close implements arun.Transport; the mesh outlives instances.
func (x *instXport) Close() {}
