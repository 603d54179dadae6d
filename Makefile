# Pre-merge gate: everything here must pass before a change lands.
#
#   make ci          build, vet, dependency check, dead-code check, full test suite, race suite, trace checks, bench smoke, fuzz smoke
#   make depcheck    the wfserve daemon must not link the simulator schedulers (internal/sched)
#   make deadcheck   no declaration under internal/ or cmd/ without a non-test reference, no …Options/…Config field without a non-test setter, unless allowlisted
#   make test        full test suite only
#   make race        race-detector suite over the concurrent packages
#   make tracecheck  golden-replay determinism + trace invariants over the chaos suite
#   make enginestress  256-instance engine stress under -race, uncached
#   make crashcheck  WAL kill/restart recovery suite, uncached
#   make walcheck    WAL commit-pipeline suite under -race, incl. SIGKILL in the commit window
#   make servecheck  wfserve daemon acceptance: 1000+ instances, shed, drain, WAL recovery
#   make modelcheck  exhaustive conformance: bounded model checker + scheduler exploration + engine sweep
#   make benchsmoke  compile-and-run every benchmark once
#   make fuzzsmoke   brief run of every fuzz target
#   make bench       the P* cost benchmarks (informational)
#   make benchdiff   compare the two newest BENCH_<pr>.json reports against the bounds
#   make profile     CPU profile of one recycled dense12 instance, with its top 10
#   make profilenet  CPU profile of dense12 engine rounds on the loopback TCP mesh, with its top 10

GO ?= go

.PHONY: ci build vet depcheck deadcheck test race enginestress tracecheck crashcheck walcheck servecheck modelcheck bench benchsmoke benchdiff fuzzsmoke profile profilenet

ci: build vet depcheck deadcheck test race enginestress tracecheck crashcheck walcheck servecheck modelcheck benchsmoke fuzzsmoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The production daemon hosts plans through internal/arun only.
# internal/sched (the simulator schedulers and their baselines) imports
# arun, so an import of sched from anything wfserve links would pull the
# whole paper-reproduction harness into the daemon.
depcheck:
	@if $(GO) list -deps ./cmd/wfserve | grep -qx 'repro/internal/sched'; then \
		echo "depcheck: cmd/wfserve depends on repro/internal/sched" >&2; exit 1; \
	fi

# Every package-level func, method, type, var and const under internal/
# and cmd/ must have a reference from a non-test file, and every
# exported field of a struct type there named …Options or …Config must
# be set by one, unless internal/deadcheck/allow.txt lists it with a
# reason; an allowlist
# entry whose declaration is gone or now referenced fails too.  The
# check type-checks the standard library from source, so it is uncached
# and takes a few seconds.
deadcheck:
	$(GO) test -count=1 ./internal/deadcheck

test:
	$(GO) test ./...

# The packages with real concurrency: the parallel guard-synthesis
# pipeline (core), the TCP transport (netwire, including the
# differential chaos suite) and its driver (arun), the multi-process
# launcher (cmd/wfnet), the actor protocol they drive, and the shared interning/memoization tables (temporal)
# with their single-owner consumers (param), whose equivalence property
# tests double as concurrency stress under -race.  The benchmark's toy
# run drives wfserve over HTTP while verdicts stream, so it guards the
# serving layer's publish paths too.
race:
	$(GO) test -race ./internal/core ./internal/netwire ./internal/arun ./internal/engine ./cmd/wfnet ./internal/serve ./internal/drain ./cmd/wfserve ./internal/actor ./internal/temporal ./internal/param ./internal/obs/... ./benchmark

# The multi-instance engine's 256-instance stress run, always uncached
# and under the race detector: the worker pool, the shared plan, the
# scratch recycling, and the instance demultiplexers all interleave
# here with randomized per-instance jitter.  The recycling equivalence
# check runs alongside: a reused scratch's runs must match fresh
# builds seed for seed.
enginestress:
	$(GO) test -race -count=1 -run 'TestEngineStress256|TestEngineChaosNet|TestScratchRecyclingEquivalence' ./internal/engine

# The observability gates, always uncached: the simulator's own
# delivery order (every delivery's time, sites and payload and the final
# statistics of two scripts, one under a fault plan, fresh and after a
# reset), bytewise golden replay of
# the traced simulator runs and of the checked-in protocol goldens
# (payload logs and traces), tracing on and off delivering the same
# messages in the same order, and the trace-invariant checker over the
# five-workflow differential chaos suite (every captured trace must
# satisfy causality, single terminal verdicts, and monotone Lamport
# stamps even under injected faults).
tracecheck:
	$(GO) test -count=1 -run 'TestDeliveryOrderGolden|TestResetMatchesFresh' ./internal/simnet
	$(GO) test -count=1 -run 'TestGoldenReplay|TestTraceDoesNotChangeRun' ./internal/sched
	$(GO) test -count=1 -run 'TestProtocolGolden|TestTraceDoesNotChangeRun' ./internal/arun
	$(GO) test -count=1 -run 'TestDifferentialChaos' ./internal/netwire

# The durability gate, always uncached: seeded kill/restart cycles over
# the WAL-backed mesh (recovered fingerprints must match the simulator
# oracle, trace invariants must hold across the restart boundary, and
# no fire may repeat), plus the snapshot-rotate-recover loop, plus the
# ack pump against a stalled commit round (a Notify callback blocks the
# receiver's committer; inbound frames keep being read and logged
# meanwhile, and nothing is acked before it is durable).
crashcheck:
	$(GO) test -count=1 -run 'TestCrashRestartChaos|TestSnapshotRecovery|TestAckPumpReadsDuringCommit' ./internal/netwire

# The commit-pipeline gate, always uncached and under -race: the whole
# WAL package (group-commit coalescing, registration churn against a
# live committer, notification ordering, recovery), plus the daemon
# SIGKILL-inside-the-commit-window test proving every acknowledged
# admission is already durable when the reply leaves.
walcheck:
	$(GO) test -race -count=1 ./internal/wal
	$(GO) test -race -count=1 -run 'TestDaemonKillCommitWindow' ./cmd/wfserve

# The serving gate, always uncached and under -race: the daemon hosts
# two distinct specs, serves 1000+ concurrent instances over the HTTP
# API with verdicts matching the engine's sim oracle per seed, sheds
# with 429 + Retry-After past the mailbox watermark without corrupting
# in-flight instances, drains cleanly, and recovers registrations and
# incomplete external instances from the per-tenant WAL on restart.
servecheck:
	$(GO) test -race -count=1 -run 'TestServeCheck|TestShedBackpressure|TestExternalInstanceOverWire' ./internal/serve
	$(GO) test -race -count=1 -run 'TestDaemonDrainAndRecover|TestDaemonCrashRecovery' ./cmd/wfserve

# The conformance gate, always uncached: the bounded model checker
# exhaustively enumerates every maximal trace of every spec in
# testdata/ and examples/ (reference interpreter, tree guards, and
# compiled bitset programs must admit identical sets, and planted
# guard mutations must surface as minimal counterexamples), the
# exploration mode drives the real distributed scheduler through its
# announcement interleavings, the engine sweep keeps every sampled
# outcome inside the admissible set, and the scale sweep records the
# P17 states-vs-universe curve.  Each run carries a wall-clock
# budget; oversized specs and truncated explorations are logged
# explicitly (-v keeps those logs visible) — never skipped silently.
# WFMC_FULL=1 additionally enables the 12-event full-depth scale run.
modelcheck:
	$(GO) test -count=1 -v -run 'TestModelCheckAll|TestMutatedGuardCaught|TestMinimalCounterexample|TestSkipOversizedExplicit|TestModelCheckScale|TestExplore' ./internal/mc
	$(GO) test -count=1 -run 'TestEngineOutcomesWithinAdmissibleSet' ./internal/engine

# Every benchmark must still compile and survive one iteration (keeps
# the perf harness from rotting between measurement sessions), and the
# allocation contracts on the hot paths — wire encoding, program-mode
# announcement delivery, a simulated send and its delivery,
# steady-state WAL append, a netwire batch
# transmission plus its inline ack (all zero), a received netwire batch
# (its decoded messages only), and one whole dense12 engine instance on
# the simulator and on the TCP mesh (bounded) — must still hold.
benchsmoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(GO) test -count=1 -run 'TestAnnounceDeliverZeroAlloc|TestEncodeZeroAlloc' ./internal/actor
	$(GO) test -count=1 -run 'TestSendStepZeroAlloc' ./internal/simnet
	$(GO) test -count=1 -run 'TestInstanceAllocs' ./internal/engine
	$(GO) test -count=1 -run 'TestWALAppendZeroAlloc' ./internal/wal
	$(GO) test -count=1 -run 'TestTransmitZeroAlloc|TestReceiveZeroAlloc|TestDurableQueueZeroAlloc' ./internal/netwire

# Every fuzz target gets a brief run; corpora live under each package's
# testdata/fuzz/.  Targets run sequentially because go test allows only
# one -fuzz pattern per invocation.
fuzzsmoke:
	$(GO) test -run=NONE -fuzz=FuzzDecodePayload -fuzztime=2s ./internal/actor
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=2s ./internal/spec
	$(GO) test -run=NONE -fuzz=FuzzWALReplay -fuzztime=2s ./internal/wal
	$(GO) test -run=NONE -fuzz=FuzzBatchFrame -fuzztime=2s ./internal/netwire
	$(GO) test -run=NONE -fuzz=FuzzReadFrame -fuzztime=2s ./internal/netwire
	$(GO) test -run=NONE -fuzz=FuzzGuardProgram -fuzztime=2s ./internal/gprog
	$(GO) test -run=NONE -fuzz=FuzzModelCheck -fuzztime=2s ./internal/mc
	$(GO) test -run=NONE -fuzz=FuzzSpecUpload -fuzztime=2s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzLaunchBody -fuzztime=2s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzAnnounceBody -fuzztime=2s ./internal/serve

bench:
	$(GO) test -bench 'BenchmarkP' -benchtime 1x ./...

# Compare the two newest checked-in full benchmark reports
# (BENCH_<pr>.json, numbered by change) against BENCHMARK.json's bounds.
benchdiff:
	@set -- $$(ls BENCH_*.json | sort -t_ -k2 -n | tail -2); \
	test $$# -eq 2 || { echo "benchdiff: need two BENCH_*.json files" >&2; exit 1; }; \
	$(GO) run ./benchmark -compare $$1,$$2

# A reproducible CPU profile of the engine's steady state:
# BenchmarkDense12Instance (one recycled dense12 instance per iteration
# on the engine's simulator transport) for PROFILE_TIME, written to
# dense12.cpu.prof next to the test binary that reads it, then its
# top 10 by flat time.
PROFILE_TIME ?= 5s

profile:
	$(GO) test -run=NONE -bench=BenchmarkDense12Instance -benchtime=$(PROFILE_TIME) -cpuprofile=dense12.cpu.prof -o dense12.test ./internal/engine
	$(GO) tool pprof -top -nodecount=10 dense12.test dense12.cpu.prof

# The same for the engine's net mode: BenchmarkDense12NetRound (engine
# rounds of dense12 instances on the loopback TCP mesh, WAL off) for
# PROFILE_TIME, written to dense12net.cpu.prof, then its top 10.
profilenet:
	$(GO) test -run=NONE -bench=BenchmarkDense12NetRound -benchtime=$(PROFILE_TIME) -cpuprofile=dense12net.cpu.prof -o dense12.test ./internal/engine
	$(GO) tool pprof -top -nodecount=10 dense12.test dense12net.cpu.prof
