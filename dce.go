// Package dce — Distributed Constrained Events — is the public API of
// this reproduction of Singh's ICDE 1996 paper, "Synthesizing
// Distributed Constrained Events from Transactional Workflow
// Specifications".
//
// The library lets you:
//
//   - specify transactional workflows declaratively as intertask
//     dependencies in a simple event algebra (Parse, ParseWorkflow,
//     ParseSpec),
//   - compile each dependency into guards localized on the individual
//     events (Compile, Guard) — the paper's core contribution, which
//     makes fully distributed scheduling possible,
//   - execute workflows on three schedulers over a deterministic
//     simulated network: the paper's distributed event-centric design
//     plus two centralized baselines (Run),
//   - reason over parametrized events (§5) so tasks with loops and
//     arbitrary structure can be scheduled (NewTemplate, NewManager).
//
// Quick start:
//
//	w, _ := dce.ParseWorkflow("~e + ~f + e . f") // Klein's e < f
//	c, _ := dce.Compile(w)
//	fmt.Println(c.GuardOf(dce.MustSymbol("e")))  // !f
//
// See the examples directory for runnable programs, DESIGN.md for the
// architecture, and EXPERIMENTS.md for the paper-versus-measured
// record.
package dce

import (
	"io"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/param"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/spec"
	"repro/internal/task"
	"repro/internal/temporal"
)

// Core algebra types (see internal/algebra).
type (
	// Expr is an expression of the event algebra ℰ.
	Expr = algebra.Expr
	// Symbol is an event symbol, possibly complemented or parametrized.
	Symbol = algebra.Symbol
	// Term is a parameter term (constant or variable).
	Term = algebra.Term
	// Trace is a sequence of event occurrences.
	Trace = algebra.Trace
	// Alphabet is a set of symbols.
	Alphabet = algebra.Alphabet
)

// Temporal / guard types (see internal/temporal).
type (
	// Guard is a temporal guard formula in sum-of-products form.
	Guard = temporal.Formula
	// Literal is one temporal literal (□e, ◇…, ¬e).
	Literal = temporal.Literal
	// Knowledge is an actor's accumulated information about events.
	Knowledge = temporal.Knowledge
)

// Compilation types (see internal/core).
type (
	// Workflow is a set of dependencies.
	Workflow = core.Workflow
	// Compiled is a workflow compiled to its per-event guard table.
	Compiled = core.Compiled
	// EventGuard is one event's compiled guard with provenance.
	EventGuard = core.EventGuard
	// Synthesizer computes guards with memoization; it is safe for
	// concurrent use.
	Synthesizer = core.Synthesizer
	// CompileOptions configures compilation (worker-pool parallelism).
	CompileOptions = core.CompileOptions
)

// Execution types (see internal/sched and internal/simnet).
type (
	// RunConfig configures a scheduler run.
	RunConfig = sched.Config
	// RunReport summarizes a run.
	RunReport = sched.Report
	// SchedulerKind selects a scheduler implementation.
	SchedulerKind = sched.Kind
	// AgentScript is a scripted task agent.
	AgentScript = spec.AgentScript
	// AgentStep is one step of an agent script.
	AgentStep = spec.Step
	// Placement maps events to sites.
	Placement = spec.Placement
	// LatencyModel configures the simulated network.
	LatencyModel = simnet.LatencyModel
	// SiteID names a simulated site.
	SiteID = simnet.SiteID
)

// Parametrized scheduling types (see internal/param).
type (
	// Binding maps variables to constants.
	Binding = param.Binding
	// Template is a parametrized workflow (§5.1).
	Template = param.Template
	// ParamGuard is a guard with universally quantified variables.
	ParamGuard = param.ParamGuard
	// ParamManager schedules ground tokens against parametrized
	// dependencies (§5.2).
	ParamManager = param.Manager
	// Counter issues per-event-type occurrence counts.
	Counter = param.Counter
)

// Task modelling types (see internal/task).
type (
	// TaskSkeleton is the coarse task description an agent exposes.
	TaskSkeleton = task.Skeleton
	// TaskInstance is a running task.
	TaskInstance = task.Instance
	// EventAttrs are scheduling attributes of a significant event.
	EventAttrs = task.EventAttrs
)

// Spec types (see internal/spec).
type (
	// Spec is a parsed .wf workflow specification.
	Spec = spec.Spec
)

// Scheduler kinds.
const (
	// Distributed is the paper's event-centric scheduler (§4).
	Distributed = sched.Distributed
	// CentralResiduation is the dependency-centric baseline (§3.3).
	CentralResiduation = sched.CentralResiduation
	// CentralAutomata is the automata baseline (reference [2]).
	CentralAutomata = sched.CentralAutomata
	// CentralGuards is the Günthör-style baseline: compiled temporal
	// guards evaluated centrally against the global history.
	CentralGuards = sched.CentralGuards
)

// Parse reads an expression of the event algebra, e.g.
// "~e + ~f + e . f".
func Parse(src string) (*Expr, error) { return algebra.Parse(src) }

// MustParse is Parse, panicking on error.
func MustParse(src string) *Expr { return algebra.MustParse(src) }

// ParseSymbol reads a single event symbol, e.g. "~commit_buy".
func ParseSymbol(src string) (Symbol, error) { return algebra.ParseSymbol(src) }

// MustSymbol is ParseSymbol, panicking on error.
func MustSymbol(src string) Symbol {
	s, err := algebra.ParseSymbol(src)
	if err != nil {
		panic(err)
	}
	return s
}

// Sym returns the positive event symbol with the given name.
func Sym(name string) Symbol { return algebra.Sym(name) }

// ParseWorkflow builds a workflow from dependency expressions.
func ParseWorkflow(deps ...string) (*Workflow, error) { return core.ParseWorkflow(deps...) }

// NewWorkflow builds a workflow from parsed dependencies.
func NewWorkflow(deps ...*Expr) *Workflow { return core.NewWorkflow(deps...) }

// Compile synthesizes the guard of every event of the workflow
// (Definition 2 of the paper), with the Theorem 2/4 independence
// decompositions enabled.  Synthesis fans out over GOMAXPROCS
// goroutines; the result is bit-identical to a sequential compile.
func Compile(w *Workflow) (*Compiled, error) { return core.Compile(w) }

// CompileWith is Compile with explicit options, e.g. to bound or
// disable (Parallelism: 1) the synthesis worker pool.
func CompileWith(w *Workflow, opts CompileOptions) (*Compiled, error) {
	return core.CompileWith(w, opts)
}

// GuardOf computes G(D, e): the guard on event e due to dependency D.
func GuardOf(d *Expr, e Symbol) Guard { return core.Guard(d, e) }

// Residuate computes D/e, the remnant of dependency D after event e
// (paper §3.4).
func Residuate(d *Expr, e Symbol) *Expr { return algebra.Residuate(d, e) }

// ParseGuard reads a guard formula in the canonical text syntax, e.g.
// "<>(~e) + []e".
func ParseGuard(src string) (Guard, error) { return temporal.ParseFormula(src) }

// Run executes a workflow on the selected scheduler over the simulated
// network and reports the realized trace and metrics.
func Run(cfg RunConfig) (*RunReport, error) { return sched.Run(cfg) }

// SpecConfig assembles a run configuration from a parsed spec.
func SpecConfig(s *Spec, kind SchedulerKind, seed int64) RunConfig {
	return sched.SpecConfig(s, kind, seed)
}

// SchedulerKinds lists the three scheduler implementations.
func SchedulerKinds() []SchedulerKind { return sched.Kinds() }

// ParseSpec reads a .wf workflow specification.
func ParseSpec(r io.Reader) (*Spec, error) { return spec.Parse(r) }

// ParseSpecString reads a .wf specification from a string.
func ParseSpecString(src string) (*Spec, error) { return spec.ParseString(src) }

// NewTemplate builds a parametrized workflow template (§5.1).
func NewTemplate(key string, deps ...string) (*Template, error) {
	return param.NewTemplate(key, deps...)
}

// NewManager builds a parametrized-dependency scheduler (§5.2).
func NewManager(deps ...string) (*ParamManager, error) { return param.NewManager(deps...) }

// Task skeletons of Figure 1.
var (
	// ApplicationSkeleton is the typical application (start/finish).
	ApplicationSkeleton = task.Application
	// TransactionSkeleton is a flat transaction (start/commit/abort).
	TransactionSkeleton = task.Transaction
	// RDATransactionSkeleton exposes a visible precommit state.
	RDATransactionSkeleton = task.RDATransaction
)

// NewTaskInstance starts a task instance from a skeleton.
func NewTaskInstance(sk *TaskSkeleton, id string) (*TaskInstance, error) {
	return task.NewInstance(sk, id)
}

// DefaultLatency returns the default simulated network latency model.
func DefaultLatency() LatencyModel { return simnet.DefaultLatency() }

// AgentFromTask builds an agent script that walks a task instance
// through the scheduler (see internal/sched).
func AgentFromTask(in *TaskInstance, site SiteID, plan []string, think int64) (*AgentScript, error) {
	return sched.AgentFromTask(in, site, plan, simnet.Time(think))
}
