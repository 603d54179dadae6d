package sched

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/spec"
	"repro/internal/task"
)

// TestAgentFromTaskPlans: scripts derive symbols and attributes from
// the skeleton.
func TestAgentFromTaskPlans(t *testing.T) {
	in, err := task.NewInstance(task.Transaction(), "buy")
	if err != nil {
		t.Fatal(err)
	}
	ag, err := AgentFromTask(in, "s-buy", []string{"start", "commit"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ag.Steps) != 3 {
		t.Fatalf("steps: %d (plan + abort declaration)", len(ag.Steps))
	}
	if ag.Steps[2].Sym.Key() != "~abort_buy" {
		t.Fatalf("declaration step: %v", ag.Steps[2].Sym)
	}
	if ag.Steps[0].Sym.Key() != "start_buy" || ag.Steps[1].Sym.Key() != "commit_buy" {
		t.Fatalf("symbols: %v %v", ag.Steps[0].Sym, ag.Steps[1].Sym)
	}
	if ag.Steps[0].Forced || ag.Steps[1].Forced {
		t.Fatal("rejectable events must not be forced")
	}
	// Commit's fallback is a forced abort.
	if len(ag.Steps[1].OnReject) != 1 || ag.Steps[1].OnReject[0].Sym.Key() != "abort_buy" ||
		!ag.Steps[1].OnReject[0].Forced {
		t.Fatalf("commit fallback: %+v", ag.Steps[1].OnReject)
	}
}

func TestAgentFromTaskValidatesPlan(t *testing.T) {
	in, _ := task.NewInstance(task.Transaction(), "x")
	if _, err := AgentFromTask(in, "s", []string{"commit"}, 1); err == nil {
		t.Fatal("commit before start must be rejected")
	}
	if _, err := AgentFromTask(in, "", []string{"start"}, 1); err == nil {
		t.Fatal("missing site must be rejected")
	}
}

// TestTwoTransactionsEndToEnd: two transaction instances coordinated
// by intertask dependencies, driven entirely through task agents.
// The dependency orders inv's commit before pay's commit; when inv
// aborts instead, pay's commit is rejected and its agent falls back to
// a forced abort — the Figure 1 lifecycle on the real scheduler.
func TestTwoTransactionsEndToEnd(t *testing.T) {
	inv, _ := task.NewInstance(task.Transaction(), "inv")
	pay, _ := task.NewInstance(task.Transaction(), "pay")
	w := core.NewWorkflow(
		// commit_pay only after commit_inv:
		dep.Enables(inv.Symbol("commit"), pay.Symbol("commit")),
		// if inv aborts, pay must not commit:
		dep.OnlyIfNever(pay.Symbol("commit"), inv.Symbol("abort")),
	)

	// Committed run.
	agInv, err := AgentFromTask(inv, "s-inv", []string{"start", "commit"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	agPay, err := AgentFromTask(pay, "s-pay", []string{"start", "commit"}, 15)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(Config{
		Workflow: w,
		Kind:     Distributed,
		Placement: spec.Placement{
			"start_inv": "s-inv", "commit_inv": "s-inv", "abort_inv": "s-inv",
			"start_pay": "s-pay", "commit_pay": "s-pay", "abort_pay": "s-pay",
		},
		Agents:   []*spec.AgentScript{agInv, agPay},
		Seed:     21,
		Closeout: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Satisfied || len(r.Unresolved) != 0 {
		t.Fatalf("commit run: satisfied=%v unresolved=%v trace=%v", r.Satisfied, r.Unresolved, r.Trace)
	}
	ci, cp := r.Trace.Index(sym("commit_inv")), r.Trace.Index(sym("commit_pay"))
	if ci < 0 || cp < 0 || ci > cp {
		t.Fatalf("commit order wrong: %v", r.Trace)
	}

	// Aborted run: inv aborts (forced); pay's commit must be refused
	// and its agent abort instead.
	inv2, _ := task.NewInstance(task.Transaction(), "inv")
	pay2, _ := task.NewInstance(task.Transaction(), "pay")
	w2 := core.NewWorkflow(
		dep.Enables(inv2.Symbol("commit"), pay2.Symbol("commit")),
		dep.OnlyIfNever(pay2.Symbol("commit"), inv2.Symbol("abort")),
	)
	agInv2, err := AgentFromTask(inv2, "s-inv", []string{"start", "abort"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	agPay2, err := AgentFromTask(pay2, "s-pay", []string{"start", "commit"}, 15)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(Config{
		Workflow: w2,
		Kind:     Distributed,
		Placement: spec.Placement{
			"start_inv": "s-inv", "commit_inv": "s-inv", "abort_inv": "s-inv",
			"start_pay": "s-pay", "commit_pay": "s-pay", "abort_pay": "s-pay",
		},
		Agents:   []*spec.AgentScript{agInv2, agPay2},
		Seed:     22,
		Closeout: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Satisfied || len(r2.Unresolved) != 0 {
		t.Fatalf("abort run: satisfied=%v unresolved=%v trace=%v", r2.Satisfied, r2.Unresolved, r2.Trace)
	}
	if !r2.Trace.Contains(sym("abort_inv")) {
		t.Fatalf("abort run: inv must abort, trace %v", r2.Trace)
	}
	if r2.Trace.Contains(sym("commit_pay")) {
		t.Fatalf("abort run: pay must not commit, trace %v", r2.Trace)
	}
	if !r2.Trace.Contains(sym("abort_pay")) {
		t.Fatalf("abort run: pay must fall back to abort, trace %v", r2.Trace)
	}
}
