package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/arun"
	"repro/internal/core"
	"repro/internal/gprog"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/temporal"
	"repro/internal/wal"
)

// replayInput names one instance of the workload's own inputs.
type replayInput struct {
	bs       *benchSpec
	seed     int64
	external bool
	// pipelined drives the instance the way the engine drives instances
	// on the mesh: each attempt completes on its own decision, not on
	// mesh-wide quiescence.
	pipelined bool
}

// transportFn builds the transport one replayed instance runs on: the
// engine's simulator transport, or a fresh loopback mesh.
type transportFn func(seed int64) (arun.Transport, error)

// stageFn brackets one stage of a replay (runner build, a run, one
// external attempt, the finish) so the caller can time or trace it.
type stageFn func(name string, step int, f func())

const (
	spanFinish = "arun.finish"
	stepBuild  = 0xFF
	stepFinish = 0xFE
)

// replayStaged builds a runner on tr and drives one instance to its
// outcome, scripted (Run) or external (Attempt per event, Finish), with
// every stage passed through stage.
func replayStaged(in replayInput, tr arun.Transport, stage stageFn) (out *arun.Outcome, err error) {
	var r *arun.Runner
	stage(spanBuild, stepBuild, func() { r, err = in.bs.plan.NewRunner(tr, arun.RunnerOptions{Pipelined: in.pipelined}) })
	if err != nil {
		return nil, err
	}
	if !in.external {
		stage(spanRun, 0, func() { out, err = r.Run() })
		return out, err
	}
	for k, ev := range in.bs.events {
		stage(spanRun, k, func() { _, _, err = r.Attempt(ev, false) })
		if err != nil {
			return nil, err
		}
	}
	stage(spanFinish, stepFinish, func() { out, err = r.Finish() })
	return out, err
}

func replayOne(bs *benchSpec, tr arun.Transport, external bool) (*arun.Outcome, error) {
	return replayStaged(replayInput{bs: bs, external: external}, tr, func(_ string, _ int, f func()) { f() })
}

// replayStats is what replaying a sample of the workload's instances
// through Plan.NewRunner + Runner.Run showed, with and without the
// tracing transport.
type replayStats struct {
	instances int
	// ops holds one entry per measured operation: a scripted instance's
	// Run, or one external Attempt.
	ops    []*instTimes
	builds []float64 // ns per NewRunner
	sends  int
	// tracedNS and plainNS are the summed stage times of the traced and
	// the untraced replays of the same inputs.
	tracedNS, plainNS float64
}

// replay runs every input twice, once through the tracing transport
// and once bare, alternating which goes first.  The two must end on the
// same fingerprint.
func replay(t *tracer, inputs []replayInput, mk transportFn) (*replayStats, error) {
	st := &replayStats{instances: len(inputs)}
	for i, in := range inputs {
		var fps [2]string
		for pass := 0; pass < 2; pass++ {
			traced := pass == i%2
			tr, err := mk(in.seed)
			if err != nil {
				return nil, err
			}
			x := &tracedTransport{Transport: tr, t: t}
			stage := func(_ string, _ int, f func()) {
				start := time.Now()
				f()
				st.plainNS += float64(time.Since(start).Nanoseconds())
			}
			if traced {
				tr = x
				stage = func(name string, step int, f func()) {
					op := uint64(i)<<8 | uint64(step)
					x.inst.Store(op)
					start := time.Now()
					t.driver(name, op, f)
					st.tracedNS += float64(time.Since(start).Nanoseconds())
				}
			}
			out, err := replayStaged(in, tr, stage)
			tr.Close()
			if err != nil {
				return nil, fmt.Errorf("replay %s seed %d: %w", in.bs.name, in.seed, err)
			}
			fps[pass] = out.Fingerprint()
		}
		if fps[0] != fps[1] {
			return nil, fmt.Errorf("replay %s seed %d: %q traced, %q bare", in.bs.name, in.seed, fps[i%2], fps[1-i%2])
		}
	}
	for _, it := range t.perInstance() {
		st.sends += it.sends
		if it.build > 0 {
			st.builds = append(st.builds, it.build)
		}
		if it.run > 0 {
			st.ops = append(st.ops, it)
		}
	}
	return st, nil
}

// layerMetrics turns the replay into the arun, actor and transport
// metrics: p50 over operations for the per-operation times, p50 over
// every span for the per-message ones.
func (st *replayStats) layerMetrics(m map[string]Metric) {
	var run, drive, handle, send, idle []float64
	for _, it := range st.ops {
		run = append(run, it.run/1e3)
		drive = append(drive, it.driveSelf()/1e3)
		for _, ns := range it.handleNS {
			handle = append(handle, ns/1e3)
		}
		send = append(send, it.sendNS...)
		for _, ns := range it.idleNS {
			idle = append(idle, ns/1e3)
		}
	}
	builds := make([]float64, len(st.builds))
	for i, ns := range st.builds {
		builds[i] = ns / 1e3
	}
	setP50(m, "arun.runner_build_us", builds)
	setP50(m, "arun.run_us", run)
	setP50(m, "arun.drive_self_us", drive)
	setP50(m, "actor.handle_us", handle)
	setP50(m, "transport.send_ns", send)
	setP50(m, "transport.idle_wait_us", idle)
	set(m, "actor.msgs_per_instance", float64(st.sends)/float64(max(1, st.instances)))
	if st.plainNS > 0 {
		set(m, "trace_overhead_pct", 100*(st.tracedNS-st.plainNS)/st.plainNS)
	}
}

// set stores a single observation under a per-layer name.
func set(m map[string]Metric, name string, v float64) {
	m[name] = Metric{Value: v, Unit: perLayerUnits[name]}
}

// setP50 stores the median of samples with its sample count.
func setP50(m map[string]Metric, name string, samples []float64) {
	m[name] = Metric{Value: median(samples), Unit: perLayerUnits[name], N: len(samples)}
}

// fsyncProbe is the median of n 4 KB write+fsync pairs in dir: the
// floor under every durable acknowledgement on this disk.
func fsyncProbe(dir string, n int) (float64, error) {
	f, err := os.OpenFile(filepath.Join(dir, "fsync-probe"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	buf := make([]byte, 4096)
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(us), nil
}

// walProbe times the log on its own, outside any server: a
// benchmark-owned wal.Open on a shared committer, appending 1, 2 and 64
// records before parking on the last one's durability.
func walProbe(dir string, iters int, m map[string]Metric) error {
	c := wal.NewCommitter(wal.CommitterOptions{})
	l, err := wal.Open(filepath.Join(dir, "wal-probe"), wal.Options{Committer: c})
	if err != nil {
		c.Close()
		return err
	}
	rec := wal.Record{Kind: wal.KAdmit, Seq: 1, Site: "probe", Sym: "probe", Note: "scripted"}
	var appendNS []float64
	for _, pending := range []int{1, 2, 64} {
		var waitUS []float64
		for i := 0; i < iters; i++ {
			var lsn uint64
			for k := 0; k < pending; k++ {
				start := time.Now()
				lsn = l.Append(rec)
				appendNS = append(appendNS, float64(time.Since(start).Nanoseconds()))
			}
			start := time.Now()
			l.WaitDurable(lsn)
			waitUS = append(waitUS, float64(time.Since(start).Nanoseconds())/1e3)
		}
		name := "wal.wait_durable_us"
		if pending > 1 {
			name += "_" + strconv.Itoa(pending)
		}
		setP50(m, name, waitUS)
	}
	setP50(m, "wal.append_ns", appendNS)
	l.Close()
	c.Close()
	return nil
}

// gprogProbe times one guard evaluation: dense12's terminal event e12,
// whose guard reads every other event, through gprog.State.Eval with
// e1..e11 observed.
func gprogProbe(iters int) (float64, error) {
	sp, err := spec.ParseString(denseSrc(12, 3))
	if err != nil {
		return 0, err
	}
	c, err := core.Compile(sp.Workflow)
	if err != nil {
		return 0, err
	}
	e12 := algebra.Sym("e12")
	prog := gprog.Compile(
		gprog.GuardInput{Guard: c.GuardOf(e12)},
		gprog.GuardInput{Guard: c.GuardOf(e12.Complement())})
	st := prog.NewState()
	for i := 1; i <= 11; i++ {
		st.Observe(algebra.Sym("e"+strconv.Itoa(i)), int64(i))
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		evalSink = st.Eval(gprog.PolPos)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters), nil
}

// evalSink keeps the probed Eval from being optimized away.
var evalSink temporal.Tri

// compileProbe times what registering the workload's specs costs:
// parse, core.Compile and arun.NewPlan (given the compiled workflow),
// each summed over the specs and taken at the median over reps, plus
// the synthesizer's call and cache-hit counts for one compile of each.
func compileProbe(specs []*benchSpec, reps int, m map[string]Metric) error {
	var parseUS, compileMS, planMS []float64
	for rep := 0; rep < reps; rep++ {
		var parse, compile, plan time.Duration
		before := obs.Default.Snapshot()
		for _, bs := range specs {
			start := time.Now()
			sp, err := spec.ParseString(bs.src)
			if err != nil {
				return err
			}
			parse += time.Since(start)
			start = time.Now()
			c, err := core.Compile(sp.Workflow)
			if err != nil {
				return err
			}
			compile += time.Since(start)
			start = time.Now()
			if _, err := arun.NewPlan(sp, arun.PlanOptions{Compiled: c}); err != nil {
				return err
			}
			plan += time.Since(start)
		}
		if rep == 0 {
			diff := obs.Default.Snapshot().Diff(before)
			set(m, "synth.calls", counter(diff, "synth.calls"))
			set(m, "synth.cache_hits", counter(diff, "synth.cache_hits"))
		}
		parseUS = append(parseUS, float64(parse.Nanoseconds())/1e3)
		compileMS = append(compileMS, float64(compile.Nanoseconds())/1e6)
		planMS = append(planMS, float64(plan.Nanoseconds())/1e6)
	}
	setP50(m, "spec.parse_us", parseUS)
	setP50(m, "core.compile_ms", compileMS)
	setP50(m, "arun.plan_build_ms", planMS)
	return nil
}

func counter(s obs.Snapshot, name string) float64 {
	m, _ := s.Get(name)
	return float64(m.Value)
}

// histP returns the q-quantile of a histogram metric in a snapshot
// diff and the observation count behind it.
func histP(s obs.Snapshot, name string, q float64) (float64, int) {
	m, _ := s.Get(name)
	return m.Quantile(q), int(m.Count)
}

// peakRSSMB reads the process's high-water resident set (0 where /proc
// is not available).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			if fields := strings.Fields(rest); len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
