package netwire_test

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/arun"
	"repro/internal/netwire"
	"repro/internal/obs"
	"repro/internal/obs/check"
	"repro/internal/simnet"
	"repro/internal/spec"
)

// The kill/restart chaos suite: every run below executes on a
// WAL-backed TCP mesh, is killed mid-flight at a seeded kill point
// (a delivered-frame threshold), and is then rebuilt from the same WAL
// directory and driven to completion.  The criteria mirror the live
// chaos suite, extended across the restart boundary:
//
//   - Confluent workflows must reproduce the no-fault simulator
//     oracle's outcome exactly — the crash, the replay, and the
//     peers' go-back-N retransmissions into the recovered node are all
//     invisible in the outcome.
//
//   - Order-sensitive workflows must still fully resolve with a
//     consistent maximal trace.
//
//   - The merged decision trace of both lives of the run — one tracer
//     spans the crash — must satisfy every internal/obs/check
//     invariant, and no symbol may fire twice: a replayed fire is
//     quiet (its record was already captured before the crash), so a
//     second traced fire means recovery re-executed durable work.

// crashPlans is the bounded fault matrix for restart runs: a clean
// network and one mixed-chaos plan from the live suite.
func crashPlans() []*simnet.FaultPlan {
	return []*simnet.FaultPlan{
		nil,
		{Seed: 5, Drop: 0.25, Dup: 0.2, Delay: 0.2, Reorder: 0.1, RTO: 400},
	}
}

// crashRestartRun executes one kill/restart cycle and returns the
// recovered run's outcome plus the merged two-phase trace capture.
func crashRestartRun(t *testing.T, sp *spec.Spec, sites []simnet.SiteID,
	fp *simnet.FaultPlan, killAt int64, ckpt time.Duration) (*arun.Outcome, []obs.Record) {
	t.Helper()
	dir := t.TempDir()
	// One tracer spans both phases.  Replay attaches no scopes, so
	// recovered protocol steps are not re-captured; only genuinely new
	// post-crash work adds records.
	tracer := obs.NewTracer(1)
	tracer.Enable(true)
	plan, err := arun.NewPlan(sp, arun.PlanOptions{Observe: true})
	if err != nil {
		t.Fatal(err)
	}

	opts := netwire.MeshOptions{Fault: fp, WALRoot: dir, CheckpointEvery: ckpt}
	mesh1, err := netwire.NewMeshOpts(arun.DefaultDriver, sites, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The pre-crash runner gets a short quiescence budget: once the mesh
	// is killed under it, its next idle wait fails and Run returns.
	r1, err := plan.NewRunner(mesh1, arun.RunnerOptions{IdleTimeout: time.Second, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r1.Run() // error expected when killed mid-run; the WAL is the result
	}()
	for {
		if d, _ := mesh1.Stats(); d >= killAt {
			break
		}
		select {
		case <-done:
			// The run outran the kill point: recovery of a completed run
			// is a valid (and tested) case.
		default:
			time.Sleep(200 * time.Microsecond)
			continue
		}
		break
	}
	mesh1.Close()
	<-done

	// Second life: same WAL root, fresh ports, replay before Start.
	opts.DeferStart = true
	mesh2, err := netwire.NewMeshOpts(arun.DefaultDriver, sites, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh2.Close()
	ropt := arun.RunnerOptions{IdleTimeout: 30 * time.Second, Tracer: tracer}
	var r2 *arun.Runner
	if mesh2.NeedsRecovery() {
		r2, err = plan.Resume(mesh2, ropt)
	} else {
		r2, err = plan.NewRunner(mesh2, ropt)
	}
	if err != nil {
		t.Fatal(err)
	}
	mesh2.Start()
	out, err := r2.Run()
	if err != nil {
		t.Fatal(err)
	}
	return out, tracer.Records()
}

func TestCrashRestartChaos(t *testing.T) {
	specs := chaosSpecs(t)
	for _, name := range []string{"travel", "chain", "saga", "mutex"} {
		name, sp := name, specs[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sites := arun.Sites(sp)
			oracle := chaosRun(t, sp, arun.NewSimTransport(1996, nil))
			want := oracle.Fingerprint()
			for pi, fp := range crashPlans() {
				for _, killAt := range []int64{3, 9} {
					label := fmt.Sprintf("plan%d/kill%d", pi, killAt)
					// The clean-network runs also exercise periodic
					// checkpoints, so recovery folds KCkpt records too.
					var ckpt time.Duration
					if fp == nil {
						ckpt = 2 * time.Millisecond
					}
					out, recs := crashRestartRun(t, sp, sites, fp, killAt, ckpt)
					if orderSensitive[name] {
						checkInvariants(t, label, out)
					} else if got := out.Fingerprint(); got != want {
						t.Errorf("%s: recovered outcome diverged:\n oracle    %s\n recovered %s",
							label, want, got)
					}
					for _, v := range check.Trace(recs) {
						t.Errorf("%s: cross-restart invariant: %s", label, v)
					}
					fires := map[string]int{}
					for _, r := range recs {
						if r.Kind == obs.KindFire {
							fires[r.Sym]++
						}
					}
					for sym, c := range fires {
						if c > 1 {
							t.Errorf("%s: %s fired %d times across the restart", label, sym, c)
						}
					}
				}
			}
		})
	}
}

// TestSnapshotRecovery closes the snapshot loop: run to completion,
// compact the WAL into a snapshot, crash, and recover from the
// snapshot alone (the rotated log has no tail).  A third life checks
// the recover-snapshot-recover cycle is stable.
func TestSnapshotRecovery(t *testing.T) {
	f, err := os.Open("../../testdata/travel.wf")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spec.Parse(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	sites := arun.Sites(sp)
	oracle := chaosRun(t, sp, arun.NewSimTransport(1996, nil))
	want := oracle.Fingerprint()

	dir := t.TempDir()
	tracer := obs.NewTracer(1)
	tracer.Enable(true)
	plan, err := arun.NewPlan(sp, arun.PlanOptions{Observe: true})
	if err != nil {
		t.Fatal(err)
	}

	// First life: full run, then snapshot at quiescence.
	mesh1, err := netwire.NewMeshOpts(arun.DefaultDriver, sites, netwire.MeshOptions{WALRoot: dir})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := plan.NewRunner(mesh1, arun.RunnerOptions{IdleTimeout: 30 * time.Second, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	out1, err := r1.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := out1.Fingerprint(); got != want {
		t.Fatalf("first life diverged: %s != %s", got, want)
	}
	if err := mesh1.Snapshot(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	mesh1.Close()

	// Second and third lives: recover, re-drive (idempotent), snapshot
	// again, crash again.
	for life := 2; life <= 3; life++ {
		mesh, err := netwire.NewMeshOpts(arun.DefaultDriver, sites,
			netwire.MeshOptions{WALRoot: dir, DeferStart: true})
		if err != nil {
			t.Fatal(err)
		}
		if !mesh.NeedsRecovery() {
			t.Fatalf("life %d: snapshot left nothing to recover", life)
		}
		r, err := plan.Resume(mesh, arun.RunnerOptions{IdleTimeout: 30 * time.Second, Tracer: tracer})
		if err != nil {
			t.Fatalf("life %d: %v", life, err)
		}
		mesh.Start()
		out, err := r.Run()
		if err != nil {
			t.Fatalf("life %d: %v", life, err)
		}
		if got := out.Fingerprint(); got != want {
			t.Errorf("life %d diverged:\n oracle    %s\n recovered %s", life, want, got)
		}
		if err := mesh.Snapshot(10 * time.Second); err != nil {
			t.Fatalf("life %d: %v", life, err)
		}
		mesh.Close()
	}
	for _, v := range check.Trace(tracer.Records()) {
		t.Errorf("cross-restart invariant: %s", v)
	}
}
