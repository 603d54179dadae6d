package sched

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/task"
)

// extrasGolden pins the distributed scheduler on events outside the
// workflow alphabet: two transaction task agents whose start (and, for
// pay, abort) no dependency mentions.  The placement leaves those
// events undeclared, so each gets an unconstrained actor at the site
// of the first agent that mentions it.  Agents either share their
// site with the alphabet's actors or sit on a site of their own.
const extrasGolden = "task-extras.report.txt"

// extrasReports runs every scenario of the golden and renders each
// run's report.
func extrasReports(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, plan := range []string{"commit", "abort"} {
		for _, apart := range []bool{false, true} {
			for seed := int64(1); seed <= 20; seed++ {
				inv, _ := task.NewInstance(task.Transaction(), "inv")
				pay, _ := task.NewInstance(task.Transaction(), "pay")
				w := core.NewWorkflow(
					dep.Enables(inv.Symbol("commit"), pay.Symbol("commit")),
					dep.OnlyIfNever(pay.Symbol("commit"), inv.Symbol("abort")),
				)
				var invSite, paySite simnet.SiteID = "s-inv", "s-pay"
				if apart {
					invSite, paySite = "a-inv", "a-pay"
				}
				agInv, err := AgentFromTask(inv, invSite, []string{"start", plan}, 10)
				if err != nil {
					t.Fatal(err)
				}
				agPay, err := AgentFromTask(pay, paySite, []string{"start", "commit"}, 15)
				if err != nil {
					t.Fatal(err)
				}
				r, err := Run(Config{
					Workflow: w,
					Kind:     Distributed,
					Placement: spec.Placement{
						"commit_inv": "s-inv", "abort_inv": "s-inv", "commit_pay": "s-pay",
					},
					Agents:   []*spec.AgentScript{agInv, agPay},
					Seed:     seed,
					Closeout: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s apart=%v seed %d\n", plan, apart, seed)
				fmt.Fprintf(&b, "  trace %v\n", r.Trace)
				for _, d := range r.Decisions {
					fmt.Fprintf(&b, "  decision %s id=%d acc=%v at=%d attempted=%d decided=%d reason=%q\n",
						r.Symbols.Key(d.ID), d.ID, d.Accepted, d.At, d.AttemptedAt, d.DecidedAt, d.Reason)
				}
				fmt.Fprintf(&b, "  stats %+v\n  latencies %v\n  makespan %d\n", r.Stats, r.AgentLatencies, r.Makespan)
				fmt.Fprintf(&b, "  unresolved %v satisfied %v generated %v\n", r.Unresolved, r.Satisfied, r.Generated)
			}
		}
	}
	return b.Bytes()
}

// TestExtrasGolden: the reports match the checked-in golden byte for
// byte.  The golden is never regenerated by a change that claims to
// preserve behaviour.
func TestExtrasGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden", extrasGolden))
	if err != nil {
		t.Fatal(err)
	}
	if got := extrasReports(t); !bytes.Equal(got, want) {
		al, bl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
		for i := 0; i < len(al) && i < len(bl); i++ {
			if !bytes.Equal(al[i], bl[i]) {
				t.Fatalf("report differs from the golden at line %d:\n  want %s\n  got  %s", i+1, al[i], bl[i])
			}
		}
		t.Fatalf("report and golden are a prefix of each other (%d vs %d lines)", len(al), len(bl))
	}
}
