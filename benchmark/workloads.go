package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/arun"
	"repro/internal/engine"
	"repro/internal/netwire"
	"repro/internal/obs"
)

// windowSeconds is the measured window per workload, the one value
// BENCHMARK.json's run_seconds repeats (the smoke test holds the two
// together).  -seconds exists because the driver passes it; reports
// measured over different windows are not compared.
const windowSeconds = 15

// sizes are the fixed amounts of work around the timed window.  The
// benchmark has one real size; the smoke test shrinks it.
type sizes struct {
	rate      float64 // serve-launch-open arrivals per second
	warm      int     // served warm-up instances
	simRound  int     // instances per engine-sim round
	netRound  int     // instances per engine-net round
	walRound  int     // instances per engine-net-wal round
	minRounds int     // measured rounds, however short the window
	setupReps int     // set-ups per run; setup_s is their median
	replay    int     // instances replayed through the tracing transport
	netReplay int     // the same on a loopback mesh (one mesh each)
	probes    int     // iterations per wal and compile probe
}

var fullSizes = sizes{
	rate: 500, warm: 1000,
	simRound: 5000, netRound: 2000, walRound: 400, minRounds: 3,
	setupReps: 5, replay: 200, netReplay: 40, probes: 200,
}

// config is one workload run's input.
type config struct {
	seed   int64
	window time.Duration
	trace  bool
	// outDir holds the WAL temp dirs and, for traced runs, the trace
	// file.
	outDir string
	oracle oracleFn
	sz     sizes
}

// instanceSeed spaces the instance seeds of different -seed values
// apart, so no two runs share inputs by accident.
func (c config) instanceSeed() int64 { return c.seed * 1_000_003 }

type workload struct {
	name, why string
	run       func(cfg config) (*Result, error)
}

var workloads = []workload{
	{"serve-launch-open",
		"open-loop scripted launches at 500/s with a verdict long-poll: the latency a submitting client sees; serve and the wal commit wait do the work, guard evaluation does not show",
		func(cfg config) (*Result, error) { return runServe(cfg, true) }},
	{"serve-external-closed",
		"two closed-loop clients announcing events one at a time: the paper's may-I-fire through the front door; a synchronous durable ack per operation, the loser if the committer waits to batch",
		func(cfg config) (*Result, error) { return runServe(cfg, false) }},
	{"engine-sim-dense12",
		"engine rounds on the simulator: CPU-bound actor, gprog, arun and simnet work with no fsync or socket; evaluator and pruning changes show here, wal and netwire changes must not",
		func(cfg config) (*Result, error) { return runEngine(cfg, engine.ModeSim, false) }},
	{"engine-net-dense12",
		"the same decisions over the loopback TCP mesh, WAL off: netwire framing, batching, acks and round trips dominate; where message pruning and frame coalescing show most",
		func(cfg config) (*Result, error) { return runEngine(cfg, engine.ModeNet, false) }},
	{"engine-net-dense12-wal",
		"engine-net with a WAL per node: tens of fsyncs per instance keep the shared committer under sustained backlog; the throughput guard for any commit-policy change",
		func(cfg config) (*Result, error) { return runEngine(cfg, engine.ModeNet, true) }},
}

// measure runs the workload and labels the result with its reason.
func (w *workload) measure(cfg config) (*Result, error) {
	res, err := w.run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Why = w.why
	return res, nil
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// observed is what the program's own counters and the Go runtime
// showed across a measured window.
type observed struct {
	diff      obs.Snapshot
	mallocs   uint64
	gcPauseNS uint64
	heapBytes uint64
}

// observe runs f between two snapshots of obs.Default and the runtime's
// memory statistics.
func observe(f func()) observed {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap := obs.Default.Snapshot()
	f()
	diff := obs.Default.Snapshot().Diff(snap)
	runtime.ReadMemStats(&after)
	return observed{
		diff:      diff,
		mallocs:   after.Mallocs - before.Mallocs,
		gcPauseNS: after.PauseTotalNs - before.PauseTotalNs,
		heapBytes: after.HeapAlloc,
	}
}

// layerMetrics reads the per-layer metrics the program already exports:
// histograms at p50, counters per completed instance.
func (o observed) layerMetrics(m map[string]Metric, instances int) {
	per := func(v float64) float64 { return v / float64(max(1, instances)) }
	hist := func(name, src string, q float64) {
		v, n := histP(o.diff, src, q)
		m[name] = Metric{Value: v, Unit: perLayerUnits[name], N: n}
	}
	hist("serve.admit_wait_us", "serve.admit_wait_us", 0.5)
	hist("serve.instance_us", "serve.instance_us", 0.5)
	set(m, "serve.shed", counter(o.diff, "serve.shed"))

	syncs, records := counter(o.diff, "wal.syncs"), counter(o.diff, "wal.records")
	set(m, "wal.syncs_per_instance", per(syncs))
	set(m, "wal.records_per_sync", records/max(1, syncs))
	hist("wal.commit_width", "wal.commit_width", 0.5)
	hist("wal.park_us", "wal.park_us", 0.5)

	hist("engine.instance_us", "engine.instance_us", 0.5)
	hist("engine.instance_us_p99", "engine.instance_us", 0.99)

	for _, name := range []string{"actor.attempts", "actor.fires", "actor.announcements", "actor.inquiries", "actor.rejects"} {
		set(m, name, per(counter(o.diff, name)))
	}
	set(m, "netwire.retransmits", counter(o.diff, "netwire.retransmits"))

	set(m, "allocs_per_instance", per(float64(o.mallocs)))
	set(m, "gc_pause_ms", float64(o.gcPauseNS)/1e6)
	set(m, "heap_mb_end", float64(o.heapBytes)/(1<<20))
	set(m, "peak_rss_mb", peakRSSMB())
}

// timing stores a latency's median and tail with their sample count.
func timing(m map[string]Metric, name string, samplesMS []float64) {
	d := summarize(samplesMS)
	m[name+"_ms_p50"] = Metric{Value: d.P50, Unit: "ms", N: d.N}
	m[name+"_ms_p99"] = Metric{Value: d.P99, Unit: "ms", N: d.N}
}

// newResult starts a result from the counts every workload has.
func newResult(w, latency string, cfg config, setupS []float64, attempted, failed int) *Result {
	r := &Result{
		Workload: w, Latency: latency, WindowS: cfg.window.Seconds(),
		Attempted: attempted, Failed: failed, Correct: failed == 0, Valid: true,
		EndToEnd: map[string]Metric{},
	}
	r.EndToEnd["setup_s"] = Metric{Value: median(setupS), Unit: "s", N: len(setupS)}
	r.EndToEnd["failed_share"] = Metric{Value: float64(failed) / float64(max(1, attempted)), Unit: "share", N: attempted}
	return r
}

// finishTrace completes a traced result: the probes every workload
// shares, zeroes for the layers it never touched, the budget, and the
// span file.
func finishTrace(r *Result, cfg config, t *tracer, specs []*benchSpec, st *replayStats,
	totalUS float64, rows map[string]float64) error {
	m := r.PerLayer
	st.layerMetrics(m)
	probeDir, err := os.MkdirTemp(cfg.outDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(probeDir)
	if err := walProbe(probeDir, cfg.sz.probes, m); err != nil {
		return err
	}
	evalNS, err := gprogProbe(1000 * cfg.sz.probes)
	if err != nil {
		return err
	}
	set(m, "gprog.eval_ns", evalNS)
	if err := compileProbe(specs, max(3, cfg.sz.probes/10), m); err != nil {
		return err
	}
	m["latency_ms_p99"] = r.EndToEnd[r.Latency+"_ms_p99"]
	if lag, ok := r.EndToEnd["generator_lag_ms_p99"]; ok {
		m["generator_lag_ms_p99"] = lag
	}

	// The budget: measured self times per layer, and a named remainder
	// that makes the column sum to the end-to-end figure.  What cannot be
	// seen from outside the program (mailbox waits, scheduling, a commit
	// round's queueing) lands in other.
	other := totalUS
	for _, layer := range []string{"serve", "wal", "arun", "actor", "transport"} {
		r.Budget = append(r.Budget, BudgetRow{Layer: layer, US: rows[layer]})
		set(m, "budget."+layer+"_us", rows[layer])
		other -= rows[layer]
	}
	r.Budget = append(r.Budget, BudgetRow{Layer: "other", US: other})
	set(m, "budget.other_us", other)
	set(m, "budget.total_us", totalUS)

	for name, unit := range perLayerUnits {
		if _, ok := m[name]; !ok {
			m[name] = Metric{Unit: unit}
		}
	}
	r.TraceFile = filepath.Join(cfg.outDir, "trace-"+r.Workload+".json")
	return t.write(r.TraceFile)
}

// replayRows is the arun, actor and transport share of one operation:
// medians over the replayed operations, in microseconds.
func (st *replayStats) replayRows(withBuild bool) map[string]float64 {
	var drive, actor, transport []float64
	for _, it := range st.ops {
		drive = append(drive, it.driveSelf()/1e3)
		actor = append(actor, it.actor/1e3)
		transport = append(transport, it.transport/1e3)
	}
	rows := map[string]float64{"arun": median(drive), "actor": median(actor), "transport": median(transport)}
	if withBuild {
		rows["arun"] += median(st.builds) / 1e3
	}
	return rows
}

// runServe runs one of the two served workloads.
func runServe(cfg config, open bool) (*Result, error) {
	name := "serve-external-closed"
	if open {
		name = "serve-launch-open"
	}
	specs, err := servedSpecs()
	if err != nil {
		return nil, err
	}

	// Set up cfg.sz.setupReps times, each a fresh server on a fresh WAL
	// directory, and keep the last one for the measurement.
	var s *served
	var cursor uint64
	var dir string
	var setupS []float64
	for rep := 0; rep < cfg.sz.setupReps; rep++ {
		if s != nil {
			s.stop()
			os.RemoveAll(dir)
		}
		start := time.Now()
		if dir, err = os.MkdirTemp(cfg.outDir, "serve-wal-"); err != nil {
			return nil, err
		}
		if s, cursor, err = setupServed(dir, specs, cfg.sz.warm); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer os.RemoveAll(dir)
	defer s.stop()

	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	var ld *load
	seen := observe(func() {
		if open {
			ld = launchOpen(s, cursor, specs, cfg.instanceSeed(), cfg.sz.rate, cfg.window)
		} else {
			ld = externalClosed(s, specs, cfg.instanceSeed(), cfg.window, t)
		}
	})
	if err := ld.check(cfg.oracle, t); err != nil {
		return nil, err
	}

	latency := "announce"
	if open {
		latency = "verdict"
	}
	r := newResult(name, latency, cfg, setupS, ld.attempted, ld.failed)
	e := r.EndToEnd
	e["instances_per_s"] = Metric{Value: float64(ld.instances) / ld.elapsed.Seconds(), Unit: "1/s", N: ld.instances}
	if open {
		timing(e, "admit", ld.admitMS)
		timing(e, "verdict", ld.verdictMS)
		lag := summarize(ld.lagMS)
		e["generator_lag_ms_p99"] = Metric{Value: lag.P99, Unit: "ms", N: lag.N}
		r.Valid = lag.P99 <= maxGeneratorLagMS
	} else {
		timing(e, "announce", ld.announceMS)
	}
	if !cfg.trace {
		return r, nil
	}

	r.PerLayer = map[string]Metric{}
	seen.layerMetrics(r.PerLayer, ld.instances)
	// The HTTP layer from outside: the launch round trip less the time the
	// server says the launch spent parked on its commit.
	rtt := summarize(ld.launchRTTUS)
	httpUS := max(0, rtt.P50-r.PerLayer["serve.admit_wait_us"].Value)
	r.PerLayer["serve.http_us"] = Metric{Value: httpUS, Unit: "us", N: rtt.N}

	// Replay the first instances of this run's own sequence.
	var inputs []replayInput
	for i := 0; i < cfg.sz.replay; i++ {
		in := replayInput{bs: specs[i%len(specs)], seed: cfg.instanceSeed() + int64(i), external: !open}
		inputs = append(inputs, in)
	}
	st, err := replay(t, inputs, func(seed int64) (arun.Transport, error) { return engine.SimTransport(seed), nil })
	if err != nil {
		return nil, err
	}
	// A launch pays the runner build; an announce finds the runner built.
	rows := st.replayRows(open)
	rows["serve"] = httpUS
	if open {
		rows["wal"] = r.PerLayer["serve.admit_wait_us"].Value
	} else {
		rows["wal"] = r.PerLayer["wal.park_us"].Value
	}
	return r, finishTrace(r, cfg, t, specs, st, e[latency+"_ms_p50"].Value*1e3, rows)
}

// round is one engine round's result, kept for checking after the
// window.
type round struct {
	seed         int64
	fingerprints map[string]int
	perS         float64 // instances per second
}

// divergentAllowance is how many instances of a mesh workload's window
// may end on an admissible trace other than the oracle's before all of
// them count as failed.  The engine's pipelined mesh drive does this to
// about one instance in 50 000 (README.md, Known findings), which no
// setting the benchmark may touch avoids, so a strict check would fail
// every other run of engine-net-dense12 on unchanged code.  The
// allowance is five times that rate plus two for short windows: above
// what unchanged code has shown, far below a change that makes early
// closeouts common.
func divergentAllowance(instances int) int { return 2 + instances/10_000 }

// checkRounds is the engine workloads' output check: every instance of
// a round must end on one fingerprint, the oracle's at seeds sampled
// from that round, and only those instances stay in the round's rate.
// On a mesh, an instance that resolved every event and satisfied every
// dependency on another trace is divergent; anything else, and every
// divergent instance once they pass the allowance, is failed.
func checkRounds(cfg config, bs *benchSpec, mesh bool, perRound int, rounds []round) (failed, divergent int, err error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	for i, rd := range rounds {
		want := ""
		for k := 0; k < 4; k++ {
			fp, err := cfg.oracle(bs, rd.seed+int64(rng.Intn(perRound)), false)
			if err != nil {
				return 0, 0, err
			}
			if want != "" && fp != want {
				return 0, 0, fmt.Errorf("oracle is not confluent on %s", bs.name)
			}
			want = fp
		}
		for fp, n := range rd.fingerprints {
			switch {
			case fp == want:
			case mesh && strings.HasSuffix(fp, "unresolved{} satisfied=true"):
				divergent += n
			default:
				failed += n
			}
		}
		rounds[i].perS *= float64(rd.fingerprints[want]) / float64(perRound)
	}
	if divergent > divergentAllowance(perRound*len(rounds)) {
		failed += divergent
	}
	return failed, divergent, nil
}

// runEngine runs one of the three engine workloads: rounds of
// engine.RunPlan on dense12 until the window is spent, with the options
// `wfrun -instances N [-transport net] [-wal dir]` gives.
func runEngine(cfg config, mode engine.Mode, withWAL bool) (*Result, error) {
	name, perRound := "engine-sim-dense12", cfg.sz.simRound
	switch {
	case withWAL:
		name, perRound = "engine-net-dense12-wal", cfg.sz.walRound
	case mode == engine.ModeNet:
		name, perRound = "engine-net-dense12", cfg.sz.netRound
	}
	dir, err := os.MkdirTemp(cfg.outDir, "engine-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	walDirs := 0
	options := func(seed int64) engine.Options {
		opt := engine.Options{Instances: perRound, Mode: mode, Seed: seed}
		if withWAL {
			walDirs++
			opt.WALRoot = filepath.Join(dir, fmt.Sprintf("wal-%d", walDirs))
		}
		return opt
	}

	// Set-up: the spec through parse, compile and plan, then one warm-up
	// round.
	var bs *benchSpec
	var setupS []float64
	for rep := 0; rep < cfg.sz.setupReps; rep++ {
		start := time.Now()
		if bs, err = dense12Spec(); err != nil {
			return nil, err
		}
		opt := options(cfg.instanceSeed())
		if _, err := engine.RunPlan(bs.plan, opt); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		os.RemoveAll(opt.WALRoot)
	}

	var rounds []round
	var roundMS []float64
	var workers int
	var batches, frames int64
	seen := observe(func() {
		start := time.Now()
		for n := 0; n < cfg.sz.minRounds || time.Since(start) < cfg.window; n++ {
			opt := options(cfg.instanceSeed() + int64((n+1)*perRound))
			began := time.Now()
			var res *engine.Result
			if res, err = engine.RunPlan(bs.plan, opt); err != nil {
				return
			}
			roundMS = append(roundMS, ms(time.Since(began)))
			rounds = append(rounds, round{seed: opt.Seed, fingerprints: res.Fingerprints, perS: res.InstancesPerSec()})
			workers = res.Workers
			batches += res.Batches
			frames += res.BatchedFrames
			os.RemoveAll(opt.WALRoot)
		}
	})
	if err != nil {
		return nil, err
	}

	attempted := perRound * len(rounds)
	failed, divergent, err := checkRounds(cfg, bs, mode == engine.ModeNet, perRound, rounds)
	if err != nil {
		return nil, err
	}
	var perS []float64
	for _, rd := range rounds {
		perS = append(perS, rd.perS)
	}

	r := newResult(name, "round", cfg, setupS, attempted, failed)
	r.Divergent = divergent
	e := r.EndToEnd
	d := summarize(perS)
	e["instances_per_s"] = Metric{Value: d.P50, Unit: "1/s", N: d.N}
	e["instances_per_s_q1"] = Metric{Value: d.Q1, Unit: "1/s", N: d.N}
	e["instances_per_s_q3"] = Metric{Value: d.Q3, Unit: "1/s", N: d.N}
	timing(e, "round", roundMS)
	if !cfg.trace {
		return r, nil
	}

	r.PerLayer = map[string]Metric{}
	seen.layerMetrics(r.PerLayer, attempted)
	if batches > 0 {
		set(r.PerLayer, "netwire.frames_per_batch", float64(frames)/float64(batches))
	}
	set(r.PerLayer, "engine.divergent", float64(r.Divergent))

	// Replay the first round's first instances one at a time, on the
	// simulator or on a loopback mesh of their own.
	t := newTracer()
	n := cfg.sz.replay
	mk := func(seed int64) (arun.Transport, error) { return engine.SimTransport(seed), nil }
	if mode == engine.ModeNet {
		n = cfg.sz.netReplay
		mk = func(int64) (arun.Transport, error) {
			return netwire.NewMeshOpts(arun.DefaultDriver, bs.plan.Sites(), netwire.MeshOptions{WALRoot: options(0).WALRoot})
		}
	}
	var inputs []replayInput
	for i := 0; i < n; i++ {
		inputs = append(inputs, replayInput{bs: bs, seed: rounds[0].seed + int64(i), pipelined: mode == engine.ModeNet})
	}
	st, err := replay(t, inputs, mk)
	if err != nil {
		return nil, err
	}
	// The budget's total is the worker-slot time one instance takes at
	// the median round: workers / instances_per_s.
	totalUS := float64(workers) * 1e6 / d.P50
	return r, finishTrace(r, cfg, t, []*benchSpec{bs}, st, totalUS, st.replayRows(true))
}
