# Pre-merge gate: everything here must pass before a change lands.
#
#   make ci          build, vet, full test suite, race suite, trace checks, bench smoke, fuzz smoke
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

GO ?= go

.PHONY: ci build vet test race enginestress tracecheck crashcheck walcheck servecheck modelcheck bench benchsmoke benchdiff fuzzsmoke

ci: build vet test race enginestress tracecheck crashcheck walcheck servecheck modelcheck benchsmoke fuzzsmoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

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
# here with randomized per-instance jitter.
enginestress:
	$(GO) test -race -count=1 -run 'TestEngineStress256|TestEngineChaosNet' ./internal/engine

# The observability gates, always uncached: bytewise golden replay of
# the traced simulator runs, and the trace-invariant checker over the
# five-workflow differential chaos suite (every captured trace must
# satisfy causality, single terminal verdicts, and monotone Lamport
# stamps even under injected faults).
tracecheck:
	$(GO) test -count=1 -run 'TestGoldenReplay' ./internal/sched
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
# allocation contracts on the five hot paths — wire encoding,
# program-mode announcement delivery, steady-state WAL append, a
# netwire batch transmission plus its inline ack (all zero), and one
# whole dense12 engine instance (bounded) — must still hold.
benchsmoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(GO) test -count=1 -run 'TestAnnounceDeliverZeroAlloc|TestEncodeZeroAlloc' ./internal/actor
	$(GO) test -count=1 -run 'TestInstanceAllocs' ./internal/engine
	$(GO) test -count=1 -run 'TestWALAppendZeroAlloc' ./internal/wal
	$(GO) test -count=1 -run 'TestTransmitZeroAlloc' ./internal/netwire

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
