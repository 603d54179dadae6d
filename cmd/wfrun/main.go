// Command wfrun executes a .wf workflow specification and reports the
// realized trace, decisions, and metrics.
//
// The -transport flag selects the substrate:
//
//	sim   deterministic simulated network (default); the -sched flag
//	      then picks the scheduler, or 'all' to compare all three
//	net   loopback TCP mesh, one node per site (internal/netwire)
//
// With -instances n (n > 1) the spec is executed as n concurrent
// workflow instances through the multi-instance engine
// (internal/engine): compiled once, driven in parallel, reported as
// aggregate throughput.  Supported for the sim and net transports.
//
// With -wal dir (net transport) every node appends announcements and
// verdicts to a write-ahead log under dir/<site> before acting on
// them; rerunning with the same directory recovers a crashed run from
// the logs and resumes it.
//
// With -order k1,k2,… the spec's agents are replaced by a replay
// script attempting the listed symbols in sequence — the invocation
// the model checker's counterexample printer (internal/mc) emits for
// re-driving a diverging trace.
//
// Usage:
//
//	wfrun [-transport sim|net]
//	      [-sched distributed|central-residuation|central-automata|all]
//	      [-order k1,k2,...] [-instances n] [-workers n]
//	      [-wal dir] [-walnosync] [-walcheckpoint d]
//	      [-seed n] [-decisions] [-trace out.jsonl] [file.wf]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/arun"
	"repro/internal/engine"
	"repro/internal/netwire"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/spec"
)

func main() {
	transport := flag.String("transport", "sim", "transport: sim or net")
	kindFlag := flag.String("sched", "distributed", "scheduler kind, or 'all' to compare (sim transport only)")
	order := flag.String("order", "", "replay a comma-separated announcement order in place of the spec's agents (the model checker's counterexamples print these)")
	instances := flag.Int("instances", 1, "concurrent workflow instances (>1 uses the multi-instance engine; sim or net)")
	workers := flag.Int("workers", 0, "engine worker pool size (0 = engine default)")
	seed := flag.Int64("seed", 1996, "simulation seed")
	showDecisions := flag.Bool("decisions", false, "print every decision")
	traceOut := flag.String("trace", "", "capture the decision trace to a JSONL file (analyze with wftrace)")
	walDir := flag.String("wal", "", "write-ahead-log root directory (net transport); reuse a dir to recover a crashed run")
	walNoSync := flag.Bool("walnosync", false, "skip fsync on WAL flushes (fast, loses the durability guarantee)")
	walCkpt := flag.Duration("walcheckpoint", 0, "periodic WAL watermark checkpoint interval (0 = off)")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	wal := walOpts{Dir: *walDir, NoSync: *walNoSync, Checkpoint: *walCkpt}
	if err := run(in, os.Stdout, *transport, *kindFlag, *order, *instances, *workers, *seed, *showDecisions, *traceOut, wal); err != nil {
		fatal(err)
	}
}

// walOpts bundles the durability flags.
type walOpts struct {
	Dir        string
	NoSync     bool
	Checkpoint time.Duration
}

// run executes the spec read from in on the requested transport and
// scheduler(s) and writes the report to out.  A non-empty traceOut
// enables full decision-trace capture on the process-wide tracer and
// writes the causally ordered stream there afterwards.
func run(in io.Reader, out io.Writer, transport, kindFlag, order string, instances, workers int, seed int64, showDecisions bool, traceOut string, wal walOpts) error {
	s, err := spec.Parse(in)
	if err != nil {
		return err
	}
	if order != "" {
		if err := applyOrder(s, order); err != nil {
			return err
		}
	}
	if wal.Dir != "" && transport != "net" {
		return fmt.Errorf("-wal needs the net transport, not %q", transport)
	}
	if traceOut != "" {
		obs.Shared().Reset()
		obs.Shared().Enable(true)
	}
	switch {
	case instances > 1:
		err = runEngine(s, out, transport, instances, workers, seed, wal)
	default:
		switch transport {
		case "", "sim":
			err = runSim(s, out, kindFlag, seed, showDecisions)
		case "net":
			err = runNet(s, out, wal)
		default:
			err = fmt.Errorf("unknown transport %q (want sim or net)", transport)
		}
	}
	if traceOut != "" {
		obs.Shared().Disable()
		if werr := writeTrace(traceOut, obs.Shared().Records()); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// applyOrder replaces the spec's agents with a replay script: one
// agent per symbol in the comma-separated order, attempting it at
// think times that preserve the listed sequence.  This is the flag
// the model checker's counterexample printer (internal/mc) emits —
// `wfrun -sched distributed -order k1,k2,... spec.wf` re-drives a
// diverging trace through the real scheduler.
func applyOrder(s *spec.Spec, order string) error {
	alpha := map[string]bool{}
	for _, b := range s.Workflow.Alphabet().Bases() {
		alpha[b.Key()] = true
	}
	placement := s.Placement()
	var agents []*sched.AgentScript
	for i, part := range strings.Split(order, ",") {
		part = strings.TrimSpace(part)
		sym, err := algebra.ParseSymbol(part)
		if err != nil {
			return fmt.Errorf("-order: %w", err)
		}
		if !alpha[sym.Base().Key()] {
			return fmt.Errorf("-order: %q is not in the workflow alphabet", part)
		}
		site := placement[sym.Base().Key()]
		if site == "" {
			site = "s0"
		}
		agents = append(agents, &sched.AgentScript{
			ID:    fmt.Sprintf("replay-%d-%s", i, sym.Key()),
			Site:  site,
			Steps: []sched.Step{{Sym: sym, Think: simnet.Time(10 * (i + 1))}},
		})
	}
	s.Agents = agents
	return nil
}

// writeTrace sorts a capture into causal order and writes it as JSONL.
func writeTrace(path string, recs []obs.Record) error {
	obs.SortCausal(recs)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteJSONL(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runEngine executes many concurrent instances through the
// multi-instance engine and reports aggregate throughput.
func runEngine(s *spec.Spec, out io.Writer, transport string, instances, workers int, seed int64, wal walOpts) error {
	var mode engine.Mode
	switch transport {
	case "", "sim":
		mode = engine.ModeSim
	case "net":
		mode = engine.ModeNet
	default:
		return fmt.Errorf("-instances > 1 needs the sim or net transport, not %q", transport)
	}
	res, err := engine.Run(s, engine.Options{
		Instances: instances, Workers: workers, Mode: mode, Seed: seed,
		WALRoot: wal.Dir, WALNoSync: wal.NoSync, CheckpointEvery: wal.Checkpoint,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "== engine over %s (%d instances, %d workers) ==\n",
		transport, res.Instances, res.Workers)
	for fp, n := range res.Fingerprints {
		fmt.Fprintf(out, "%4d× %s\n", n, fp)
	}
	fmt.Fprintf(out, "elapsed:   %v   instances/s: %.0f   announcements/s: %.0f\n",
		res.Elapsed.Round(time.Microsecond), res.InstancesPerSec(), res.FiresPerSec())
	fmt.Fprintf(out, "observed:  %d announcements, %d decisions\n", res.Fires, res.Decisions)
	if mode == engine.ModeNet && res.Batches > 0 {
		fmt.Fprintf(out, "batching:  %d frames in %d batch frames (%.1f per batch)\n",
			res.BatchedFrames, res.Batches, float64(res.BatchedFrames)/float64(res.Batches))
	}
	fmt.Fprintln(out)
	return nil
}

// runSim executes on the deterministic simulator through the
// scheduler harness, the paper's measured configuration.
func runSim(s *spec.Spec, out io.Writer, kindFlag string, seed int64, showDecisions bool) error {
	var kinds []sched.Kind
	if kindFlag == "all" {
		kinds = sched.Kinds()
	} else {
		kinds = []sched.Kind{sched.Kind(kindFlag)}
	}

	for _, kind := range kinds {
		r, err := sched.Run(s.RunConfig(kind, seed))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "== %s ==\n", kind)
		fmt.Fprintf(out, "trace:     %v\n", r.Trace)
		fmt.Fprintf(out, "satisfied: %v\n", r.Satisfied)
		if len(r.Unresolved) > 0 {
			fmt.Fprintf(out, "UNRESOLVED: %v\n", r.Unresolved)
		}
		fmt.Fprintf(out, "makespan:  %dµs   messages: %d (remote %d)   msgs/event: %.1f\n",
			r.Makespan, r.Stats.Messages, r.Stats.Remote, r.MessagesPerEvent())
		fmt.Fprintf(out, "latency:   avg %dµs  max %dµs\n", r.AvgLatency(), r.MaxLatency())
		if showDecisions {
			for _, d := range r.Decisions {
				verdict := "accept"
				if !d.Accepted {
					verdict = "reject"
				}
				fmt.Fprintf(out, "  %-7s %-16s attempted=%d decided=%d %s\n",
					verdict, d.Sym.Key(), d.AttemptedAt, d.DecidedAt, d.Reason)
			}
		}
		fmt.Fprintln(out)
	}
	return nil
}

// runNet executes on the loopback TCP mesh through the arun driver
// (always the distributed per-event-actor scheduler).
func runNet(s *spec.Spec, out io.Writer, wal walOpts) error {
	mesh, err := netwire.NewMeshOpts(arun.DefaultDriver, arun.Sites(s), netwire.MeshOptions{
		WALRoot: wal.Dir, NoSync: wal.NoSync, CheckpointEvery: wal.Checkpoint,
		DeferStart: wal.Dir != "",
	})
	if err != nil {
		return err
	}
	defer mesh.Close()
	var (
		r         *arun.Runner
		recovered bool
	)
	if wal.Dir != "" {
		// A reused WAL directory resumes the crashed run: rebuild the
		// actors, replay the logs through them, then start the mesh and
		// let Run re-drive the schedule idempotently.
		plan, err := arun.NewPlan(s, arun.PlanOptions{Driver: arun.DefaultDriver, Observe: true})
		if err != nil {
			return err
		}
		opt := arun.RunnerOptions{IdleTimeout: 30 * time.Second}
		if mesh.NeedsRecovery() {
			r, err = plan.Resume(mesh, opt)
			recovered = true
		} else {
			r, err = plan.NewRunner(mesh, opt)
		}
		if err != nil {
			return err
		}
		mesh.Start()
	} else {
		r, err = arun.New(mesh, s, arun.Options{IdleTimeout: 30 * time.Second})
		if err != nil {
			return err
		}
	}
	o, err := r.Run()
	if err != nil {
		return err
	}
	if recovered {
		fmt.Fprintf(out, "(recovered from WAL at %s)\n", wal.Dir)
	}
	fmt.Fprintln(out, "== distributed over net ==")
	fmt.Fprintf(out, "trace:     %v\n", o.Trace)
	fmt.Fprintf(out, "satisfied: %v\n", o.Satisfied)
	if len(o.Unresolved) > 0 {
		fmt.Fprintf(out, "UNRESOLVED: %v\n", o.Unresolved)
	}
	fmt.Fprintf(out, "observed:  %d announcements, %d decisions\n", o.Announcements, o.Decisions)
	fmt.Fprintln(out)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wfrun:", err)
	os.Exit(1)
}
