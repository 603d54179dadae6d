package serve

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/arun"
	"repro/internal/engine"
	"repro/internal/wal"
)

// Config configures a Server.
type Config struct {
	// Shards is the number of execution shards (default GOMAXPROCS).
	// Each shard is one worker goroutine with a bounded mailbox;
	// instances are placed on shard id mod Shards, and a restart
	// recovers each instance on the shard whose per-tenant log it was
	// journaled to, so the shard count must not change across restarts
	// of one WALRoot.
	Shards int
	// MailboxDepth bounds each shard's queued tasks (default 256).
	MailboxDepth int
	// HighWater is the queue depth at which admission sheds (default
	// 3/4 of MailboxDepth).
	HighWater int
	// WALRoot enables durable journaling under per-tenant directories
	// (wal.TenantDir).  Empty runs without durability.
	WALRoot string
	// WALNoSync skips fsync (group commit still orders writes).
	WALNoSync bool
	// FsyncLagMax sheds admissions when a shard log's unsynced tail
	// (appended minus durable LSN) exceeds this many records (default
	// 4096; 0 keeps the default, negative disables the check).
	FsyncLagMax int64
	// RegistryCap bounds cached compiled plans (DefaultRegistryCap).
	RegistryCap int
	// IdleTimeout bounds each instance's transport waits (default 15s).
	IdleTimeout time.Duration
	// Logf receives progress lines; nil discards.
	Logf func(string, ...any)
}

// Verdict is one completed instance's outcome summary, sequenced for
// cursor-based streaming.
type Verdict struct {
	// Seq is the verdict's position in the /v1/verdicts stream; it is
	// set on the stream's copy only, so a verdict read per instance
	// carries 0.
	Seq         uint64 `json:"seq"`
	ID          uint64 `json:"id"`
	Tenant      string `json:"tenant"`
	Spec        string `json:"spec"`
	Mode        string `json:"mode"`
	Fingerprint string `json:"fingerprint"`
	Satisfied   bool   `json:"satisfied"`
	Recovered   bool   `json:"recovered,omitempty"`
}

// Instance is one admitted workflow instance.
type Instance struct {
	ID     uint64
	Tenant string
	Spec   string
	Mode   string // "scripted" or "external"
	Seed   int64

	shard *shard
	srv   *Server

	mu        sync.Mutex
	runner    *arun.Runner
	transport arun.Transport
	release   func()
	started   time.Time
	done      bool
	verdict   *Verdict
	recovered bool
	// doneLog/doneLSN locate the KDone record so acknowledgement paths
	// (CloseInstance) can park on its durability.
	doneLog *tenantLog
	doneLSN uint64
}

type shard struct {
	name string
	// failed is set once any of the shard's logs is poisoned (wal fails
	// closed on the first write or fsync error): the shard then answers
	// 503 to everything placed on it, and its worker drains the tasks
	// already queued — none of which can acknowledge anything, since
	// nothing appended to a poisoned log becomes durable.
	failed atomic.Bool
	// mu guards the close handshake: enqueue holds the read side for
	// the send, drain takes the write side to set closed before
	// closing the mailbox, so no send can race the close.
	mu     sync.RWMutex
	closed bool
	mbox   chan func()
	wg     sync.WaitGroup
}

// tenantLog pairs an open log with its append high-water mark.
type tenantLog struct {
	log     *wal.Log
	lastLSN atomic.Uint64
}

// Server hosts the registry, the shard pool, and the verdict stream.
type Server struct {
	cfg Config
	reg *Registry

	shards []*shard
	// committers: log name ("registry", "shard-N") → the shared fsync
	// scheduler every tenant's log of that name registers with, so one
	// commit round covers all tenants on a shard.  Empty without a WAL.
	committers map[string]*wal.Committer

	mu        sync.Mutex
	instances map[uint64]*Instance
	logs      map[string]*tenantLog // tenant "/" logname
	nextID    uint64

	draining  atomic.Bool
	drainOnce sync.Once

	verdicts *verdictStream
}

const (
	ModeScripted = "scripted"
	ModeExternal = "external"
)

// NewServer builds (and, when WALRoot holds prior state, recovers) a
// server.  Call Drain before discarding it.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.MailboxDepth <= 0 {
		cfg.MailboxDepth = 256
	}
	if cfg.HighWater <= 0 {
		cfg.HighWater = cfg.MailboxDepth * 3 / 4
	}
	if cfg.FsyncLagMax == 0 {
		cfg.FsyncLagMax = 4096
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 15 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:        cfg,
		reg:        NewRegistry(cfg.RegistryCap),
		committers: map[string]*wal.Committer{},
		instances:  map[uint64]*Instance{},
		logs:       map[string]*tenantLog{},
		verdicts:   newVerdictStream(4096),
	}
	if cfg.WALRoot != "" {
		s.committers["registry"] = wal.NewCommitter(wal.CommitterOptions{})
		for i := 0; i < cfg.Shards; i++ {
			s.committers["shard-"+strconv.Itoa(i)] = wal.NewCommitter(wal.CommitterOptions{})
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			name: "shard-" + strconv.Itoa(i),
			mbox: make(chan func(), cfg.MailboxDepth),
		}
		s.shards = append(s.shards, sh)
		sh.wg.Add(1)
		go func() {
			defer sh.wg.Done()
			for task := range sh.mbox {
				task()
			}
		}()
	}
	if cfg.WALRoot != "" {
		if err := s.recover(); err != nil {
			s.closeLogs()
			return nil, err
		}
	}
	return s, nil
}

// log returns (opening lazily) the tenant's named log.  nil, nil when
// the server runs without durability.
func (s *Server) log(tenant, name string) (*tenantLog, error) {
	if s.cfg.WALRoot == "" {
		return nil, nil
	}
	key := tenant + "/" + name
	s.mu.Lock()
	defer s.mu.Unlock()
	if tl := s.logs[key]; tl != nil {
		return tl, nil
	}
	l, err := wal.Open(wal.TenantDir(s.cfg.WALRoot, tenant, name), wal.Options{
		NoSync:    s.cfg.WALNoSync,
		Committer: s.committers[name],
	})
	if err != nil {
		return nil, err
	}
	tl := &tenantLog{log: l}
	s.logs[key] = tl
	return tl, nil
}

// appendAsync journals one record without waiting for durability,
// tracking the log's append high-water mark.  The caller parks on the
// returned LSN (WaitDurable or Notify) before acknowledging anything
// that depends on the record surviving a crash.
func (tl *tenantLog) appendAsync(r wal.Record) uint64 {
	lsn := tl.log.Append(r)
	for {
		old := tl.lastLSN.Load()
		if lsn <= old || tl.lastLSN.CompareAndSwap(old, lsn) {
			break
		}
	}
	return lsn
}

// append journals one record durably (WaitDurable): the blocking form
// used for rare control-plane records.  It fails when the log does.
func (tl *tenantLog) append(r wal.Record) error {
	return tl.log.WaitDurable(tl.appendAsync(r))
}

// failShard marks a shard failed after one of its logs reported err.
func (s *Server) failShard(sh *shard, err error) {
	if sh.failed.CompareAndSwap(false, true) {
		s.cfg.Logf("serve: shard %s failed, draining it: %v", sh.name, err)
	}
}

// shardFailed is the 503 every request placed on a failed shard gets.
func shardFailed(sh *shard) *Error {
	return errf(503, "shard %s failed: its log is not durable", sh.name)
}

// lag is the unsynced tail length.
func (tl *tenantLog) lag() int64 {
	return int64(tl.lastLSN.Load()) - int64(tl.log.Durable())
}

// retryAfter sizes a 429 Retry-After from the log's actual fsync lag:
// records behind divided by the recent commit rate.
func (tl *tenantLog) retryAfter() int {
	return retryAfterSecs(tl.lag(), tl.log.CommitRate())
}

// retryAfterSecs is the pure computation: ceil(lag/rate) clamped to
// [1, 30] seconds, with 1s when the rate is still unknown.
func retryAfterSecs(lag int64, rate float64) int {
	if lag <= 0 || rate <= 0 {
		return 1
	}
	secs := int(math.Ceil(float64(lag) / rate))
	if secs < 1 {
		return 1
	}
	if secs > 30 {
		return 30
	}
	return secs
}

// RegisterSpec registers (and journals) a spec for a tenant.
func (s *Server) RegisterSpec(tenant, name, source string) (*PlanEntry, *Error) {
	if s.draining.Load() {
		return nil, errf(503, "draining")
	}
	e, rerr := s.reg.Register(tenant, name, source)
	if rerr != nil {
		mRejected.Inc()
		return nil, rerr
	}
	tl, err := s.log(tenant, "registry")
	if err != nil {
		return nil, errf(500, "registry log: %v", err)
	}
	if tl != nil {
		if err := tl.append(wal.Record{Kind: wal.KSpecReg, Site: tenant, Sym: name, Payload: []byte(source)}); err != nil {
			return nil, errf(503, "registry log: %v", err)
		}
	}
	return e, nil
}

// shardFor places a new instance on its shard.  The shard set is fixed
// for the server's life and recovery reopens each instance on the
// shard whose log holds it, so placement never moves an instance and
// id modulo the shard count is enough.
func (s *Server) shardFor(id uint64) *shard {
	return s.shards[id%uint64(len(s.shards))]
}

// Launch admits one instance of a registered spec.  mode is
// ModeScripted (the spec's agents drive it to completion on the shard
// worker) or ModeExternal (the instance stays open for Announce until
// CloseInstance or drain).  Admission sheds with 429 when the target
// shard's mailbox or WAL lag crosses the watermarks and refuses with
// 503 while draining.
func (s *Server) Launch(tenant, name, mode string, seed int64) (*Instance, *Error) {
	if mode == "" {
		mode = ModeScripted
	}
	if mode != ModeScripted && mode != ModeExternal {
		return nil, errf(400, "unknown mode %q", mode)
	}
	if s.draining.Load() {
		return nil, errf(503, "draining")
	}
	entry, rerr := s.reg.Lookup(tenant, name)
	if rerr != nil {
		return nil, rerr
	}

	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.mu.Unlock()
	sh := s.shardFor(id)
	if sh.failed.Load() {
		return nil, shardFailed(sh)
	}

	if depth := len(sh.mbox); depth >= s.cfg.HighWater {
		mShed.Inc()
		entry.Stats.Shed.Add(1)
		return nil, &Error{Status: 429, Msg: fmt.Sprintf("shard %s at depth %d", sh.name, depth),
			RetryAfter: 1 + depth/256}
	}
	tl, err := s.log(tenant, sh.name)
	if err != nil {
		return nil, errf(500, "shard log: %v", err)
	}
	if tl != nil && s.cfg.FsyncLagMax > 0 && tl.lag() > s.cfg.FsyncLagMax {
		mShed.Inc()
		mShedWAL.Inc()
		entry.Stats.Shed.Add(1)
		return nil, &Error{Status: 429, Msg: "wal fsync lag", RetryAfter: tl.retryAfter()}
	}

	admitStart := time.Now()
	var admitLSN uint64
	if tl != nil {
		admitLSN = tl.appendAsync(wal.Record{Kind: wal.KAdmit, Seq: id, Site: tenant, Sym: name, Note: mode, At: seed})
	}

	inst := &Instance{ID: id, Tenant: tenant, Spec: name, Mode: mode, Seed: seed, shard: sh, srv: s}
	s.mu.Lock()
	s.instances[id] = inst
	s.mu.Unlock()
	mAdmitted.Inc()
	mActive.Add(1)
	entry.Stats.Launched.Add(1)

	if !s.enqueue(sh, func() { inst.start(entry) }) {
		// Raced a drain or a full mailbox after the watermark check:
		// roll the admission back, closing the journaled admit so a
		// restart does not resurrect the shed instance.  The KDone
		// wait transitively covers the KAdmit (same log, lower LSN).
		if tl != nil {
			if err := tl.append(wal.Record{Kind: wal.KDone, Seq: id, Note: "shed"}); err != nil {
				s.failShard(sh, err)
			}
		}
		s.mu.Lock()
		delete(s.instances, id)
		s.mu.Unlock()
		mActive.Add(-1)
		mShed.Inc()
		entry.Stats.Shed.Add(1)
		return nil, &Error{Status: 429, Msg: "shard mailbox full", RetryAfter: 1}
	}
	// Reply after durable: the instance is already executing on its
	// shard worker while this goroutine parks on the group commit
	// covering its KAdmit — concurrent launches across all tenants on
	// the shard share that one fsync round.  A KAdmit that never
	// becomes durable is never acknowledged.
	if tl != nil {
		if err := tl.log.WaitDurable(admitLSN); err != nil {
			s.failShard(sh, err)
			return nil, shardFailed(sh)
		}
	}
	mAdmitWaitUS.Observe(time.Since(admitStart).Microseconds())
	return inst, nil
}

// enqueue posts a task unless the mailbox is full or closed.
func (s *Server) enqueue(sh *shard, task func()) bool {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.closed {
		return false
	}
	select {
	case sh.mbox <- task:
		return true
	default:
		return false
	}
}

// start runs on the shard worker: it builds the instance's runner and,
// for scripted mode, drives it to completion.
func (inst *Instance) start(entry *PlanEntry) {
	plan, sat, release, rerr := entry.Acquire()
	if rerr != nil {
		inst.srv.cfg.Logf("serve: instance %d: %v", inst.ID, rerr)
		inst.finalize(entry, nil)
		return
	}
	// Same transport construction as the engine's sim mode, so a hosted
	// instance at seed s reproduces the engine oracle's fingerprint.
	tr := engine.SimTransport(inst.Seed)
	r, err := plan.NewRunner(tr, arun.RunnerOptions{
		IdleTimeout: inst.srv.cfg.IdleTimeout,
		SatCache:    sat,
		Instance:    uint32(inst.ID),
	})
	if err != nil {
		release()
		tr.Close()
		inst.srv.cfg.Logf("serve: instance %d: %v", inst.ID, err)
		inst.finalize(entry, nil)
		return
	}
	inst.mu.Lock()
	inst.runner = r
	inst.transport = tr
	inst.release = release
	inst.started = time.Now()
	inst.mu.Unlock()

	if inst.Mode == ModeScripted {
		out, err := r.Run()
		if err != nil {
			inst.srv.cfg.Logf("serve: instance %d run: %v", inst.ID, err)
		}
		inst.finalize(entry, out)
	}
}

// finalize completes an instance: journal the KDone, record the
// verdict, and publish it once the record is durable.  The shard
// worker never blocks on an fsync here — the externally visible
// acknowledgement (the verdict stream entry and the completion
// stats) rides the durability notification instead, so completions
// across all tenants share the committer's next round.
func (inst *Instance) finalize(entry *PlanEntry, out *arun.Outcome) {
	inst.mu.Lock()
	if inst.done {
		inst.mu.Unlock()
		return
	}
	release := inst.release
	tr := inst.transport
	started := inst.started
	recovered := inst.recovered
	inst.release = nil
	inst.transport = nil
	// Drop the runner: done is not set until the verdict is, but
	// finalize runs on the shard worker (or in drain, after the
	// workers stop), so every reader that needs the runner runs before
	// or after this whole call.  Keeping it would pin the whole actor
	// graph of every completed instance in the instance table for the
	// GC to scan.
	inst.runner = nil
	inst.mu.Unlock()

	fp, satisfied := "error", false
	if out != nil {
		fp, satisfied = out.Fingerprint(), out.Satisfied
	}
	var doneLog *tenantLog
	var doneLSN uint64
	if tl, err := inst.srv.log(inst.Tenant, inst.shard.name); err == nil && tl != nil {
		doneLog = tl
		doneLSN = tl.appendAsync(wal.Record{Kind: wal.KDone, Seq: inst.ID, Note: fp})
	}
	v := &Verdict{
		ID: inst.ID, Tenant: inst.Tenant, Spec: inst.Spec, Mode: inst.Mode,
		Fingerprint: fp, Satisfied: satisfied, Recovered: recovered,
	}
	// done, the verdict and the KDone's LSN are published together: no
	// reader sees a finished instance without the verdict or without
	// the record an acknowledgement of it must wait for.
	inst.mu.Lock()
	inst.done, inst.verdict = true, v
	inst.doneLog, inst.doneLSN = doneLog, doneLSN
	inst.mu.Unlock()
	mActive.Add(-1)

	publish := func(err error) {
		if err != nil {
			// The KDone is not durable: publishing the verdict would
			// acknowledge a completion a restart does not know about.
			inst.srv.failShard(inst.shard, err)
			return
		}
		inst.srv.verdicts.push(*v)
		mCompleted.Inc()
		if entry != nil {
			entry.Stats.Completed.Add(1)
			if satisfied {
				entry.Stats.Satisfied.Add(1)
			} else {
				entry.Stats.Unsatisfied.Add(1)
			}
		}
		if !started.IsZero() {
			mInstanceUS.Observe(time.Since(started).Microseconds())
		}
	}
	if doneLog == nil {
		publish(nil)
	} else {
		doneLog.log.Notify(doneLSN, publish)
	}
	if release != nil {
		release()
	}
	if tr != nil {
		tr.Close()
	}
}

// Get returns an admitted instance.
func (s *Server) Get(id uint64) (*Instance, *Error) {
	s.mu.Lock()
	inst := s.instances[id]
	s.mu.Unlock()
	if inst == nil {
		return nil, errf(404, "instance %d not found", id)
	}
	return inst, nil
}

// AnnounceResult is the decision state of one external announcement.
type AnnounceResult struct {
	Decided  bool `json:"decided"`
	Accepted bool `json:"accepted"`
}

// Announce feeds one external event into a running external-mode
// instance, journals it, and reports the decision.  The attempt runs
// on the instance's shard worker, serialized with its other
// operations.
func (s *Server) Announce(id uint64, event string, forced bool) (AnnounceResult, *Error) {
	if s.draining.Load() {
		return AnnounceResult{}, errf(503, "draining")
	}
	inst, rerr := s.Get(id)
	if rerr != nil {
		return AnnounceResult{}, rerr
	}
	if inst.Mode != ModeExternal {
		return AnnounceResult{}, errf(409, "instance %d is %s, not external", id, inst.Mode)
	}
	if inst.shard.failed.Load() {
		return AnnounceResult{}, shardFailed(inst.shard)
	}
	sym, err := algebra.ParseSymbol(event)
	if err != nil {
		return AnnounceResult{}, errf(400, "bad event %q: %v", event, err)
	}

	type reply struct {
		res  AnnounceResult
		rerr *Error
		tl   *tenantLog
		lsn  uint64
	}
	ch := make(chan reply, 1)
	if !s.enqueue(inst.shard, func() {
		inst.mu.Lock()
		done, r := inst.done, inst.runner
		inst.mu.Unlock()
		if done || r == nil {
			ch <- reply{rerr: errf(409, "instance %d already completed", id)}
			return
		}
		note := ""
		if forced {
			note = "forced"
		}
		// Journal before attempting: an attempt that cannot be journaled
		// must not run, or its reply would acknowledge an event a restart
		// never replays.
		evLog, err := s.log(inst.Tenant, inst.shard.name)
		if err != nil {
			ch <- reply{rerr: errf(503, "shard log: %v", err)}
			return
		}
		var evLSN uint64
		if evLog != nil {
			evLSN = evLog.appendAsync(wal.Record{Kind: wal.KEvent, Seq: id, Sym: event, Note: note})
		}
		decided, accepted, err := r.Attempt(sym, forced)
		if err != nil {
			ch <- reply{rerr: errf(422, "attempt %s: %v", event, err), tl: evLog, lsn: evLSN}
			return
		}
		mAnnounces.Inc()
		if entry, rerr := s.reg.Lookup(inst.Tenant, inst.Spec); rerr == nil {
			entry.Stats.Announces.Add(1)
		}
		ch <- reply{res: AnnounceResult{Decided: decided, Accepted: accepted}, tl: evLog, lsn: evLSN}
	}) {
		mShed.Inc()
		return AnnounceResult{}, &Error{Status: 429, Msg: "shard mailbox full", RetryAfter: 1}
	}
	rep := <-ch
	// Reply after durable: the attempt already ran on the shard
	// worker; only this caller parks until the KEvent's group commit
	// lands, so the shard keeps absorbing other tenants' work.
	if rep.tl != nil {
		if err := rep.tl.log.WaitDurable(rep.lsn); err != nil {
			s.failShard(inst.shard, err)
			return AnnounceResult{}, shardFailed(inst.shard)
		}
	}
	return rep.res, rep.rerr
}

// CloseInstance finishes an external instance: closeout passes to a
// maximal trace, durable KDone, verdict.  Scripted instances complete
// on their own; closing one that already finished returns its verdict
// idempotently.  Either way the verdict is returned only once its KDone
// is durable.
func (s *Server) CloseInstance(id uint64) (*Verdict, *Error) {
	inst, rerr := s.Get(id)
	if rerr != nil {
		return nil, rerr
	}
	inst.mu.Lock()
	v := inst.verdict
	inst.mu.Unlock()
	if v == nil {
		if v, rerr = s.closeOpen(inst); rerr != nil {
			return nil, rerr
		}
	}
	// The verdict is an acknowledgement, on this path as on a repeated
	// close: park until its KDone is durable so a crash after this
	// reply cannot resurrect the instance as incomplete.
	inst.mu.Lock()
	doneLog, doneLSN := inst.doneLog, inst.doneLSN
	inst.mu.Unlock()
	if doneLog != nil {
		if err := doneLog.log.WaitDurable(doneLSN); err != nil {
			s.failShard(inst.shard, err)
			return nil, shardFailed(inst.shard)
		}
	}
	return v, nil
}

// closeOpen finishes an external instance that has no verdict yet on
// its shard worker and returns the verdict.
func (s *Server) closeOpen(inst *Instance) (*Verdict, *Error) {
	id := inst.ID
	if inst.Mode != ModeExternal {
		return nil, errf(409, "instance %d is %s; it completes on its own", id, inst.Mode)
	}
	if inst.shard.failed.Load() {
		return nil, shardFailed(inst.shard)
	}

	type reply struct {
		v    *Verdict
		rerr *Error
	}
	ch := make(chan reply, 1)
	if !s.enqueue(inst.shard, func() {
		inst.mu.Lock()
		done, r := inst.done, inst.runner
		v := inst.verdict
		inst.mu.Unlock()
		if done {
			ch <- reply{v: v}
			return
		}
		if r == nil {
			ch <- reply{rerr: errf(500, "instance %d has no runner", id)}
			return
		}
		out, err := r.Finish()
		if err != nil {
			s.cfg.Logf("serve: finish %d: %v", id, err)
		}
		entry, _ := s.reg.Lookup(inst.Tenant, inst.Spec)
		inst.finalize(entry, out)
		inst.mu.Lock()
		v = inst.verdict
		inst.mu.Unlock()
		ch <- reply{v: v}
	}) {
		mShed.Inc()
		return nil, &Error{Status: 429, Msg: "shard mailbox full", RetryAfter: 1}
	}
	rep := <-ch
	return rep.v, rep.rerr
}

// Drain stops admissions, settles every in-flight instance, closes
// open external instances to their maximal-trace outcomes, syncs and
// closes all logs.  Idempotent; safe to call from a signal handler
// path.
func (s *Server) Drain() {
	s.drainOnce.Do(s.drain)
}

func (s *Server) drain() {
	s.draining.Store(true)
	// Stop the shard workers after their queues empty.
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.closed = true
		close(sh.mbox)
		sh.mu.Unlock()
	}
	for _, sh := range s.shards {
		sh.wg.Wait()
	}
	// Settle still-open instances (external ones awaiting CloseInstance,
	// or scripted ones whose start task never ran) inline.
	s.mu.Lock()
	var open []*Instance
	for _, inst := range s.instances {
		open = append(open, inst)
	}
	s.mu.Unlock()
	for _, inst := range open {
		inst.mu.Lock()
		done, r := inst.done, inst.runner
		inst.mu.Unlock()
		if done {
			continue
		}
		entry, _ := s.reg.Lookup(inst.Tenant, inst.Spec)
		if r == nil {
			// Admitted but never started: run it now so the admission's
			// durable KAdmit gets its KDone.
			if entry != nil {
				inst.start(entry)
				inst.mu.Lock()
				r = inst.runner
				inst.mu.Unlock()
			}
		}
		if r != nil {
			inst.mu.Lock()
			stillOpen := !inst.done
			inst.mu.Unlock()
			if stillOpen {
				out, err := r.Finish()
				if err != nil {
					s.cfg.Logf("serve: drain finish %d: %v", inst.ID, err)
				}
				inst.finalize(entry, out)
			}
		}
	}
	s.closeLogs()
}

// closeLogs seals every open log (Close commits what is pending), then
// stops the shared commit loops.
func (s *Server) closeLogs() {
	s.mu.Lock()
	logs := s.logs
	s.logs = map[string]*tenantLog{}
	s.mu.Unlock()
	for _, tl := range logs {
		tl.log.Close()
	}
	for _, c := range s.committers {
		c.Close()
	}
}

// Draining reports whether a drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats snapshots service-level state for the status endpoints.
type Stats struct {
	Shards    int            `json:"shards"`
	Active    int64          `json:"active"`
	Depths    map[string]int `json:"depths"`
	Draining  bool           `json:"draining"`
	Instances int            `json:"instances"`
}

// Stats returns current depths and counts.
func (s *Server) Stats() Stats {
	st := Stats{Shards: len(s.shards), Depths: map[string]int{}, Draining: s.draining.Load()}
	for _, sh := range s.shards {
		st.Depths[sh.name] = len(sh.mbox)
	}
	st.Active = mActive.Value()
	s.mu.Lock()
	st.Instances = len(s.instances)
	s.mu.Unlock()
	return st
}

// recover replays per-tenant logs: registry logs re-register specs,
// shard logs re-run incomplete scripted instances and re-open
// incomplete external ones (replaying their journaled announcements).
func (s *Server) recover() error {
	root := s.cfg.WALRoot
	tenants, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var maxID uint64
	type pending struct {
		inst   *Instance
		events []wal.Record
	}
	var relaunch []pending
	for _, te := range tenants {
		if !te.IsDir() {
			continue
		}
		tenant := te.Name()
		// Registry first: instances need their specs compiled.
		rl, err := s.log(tenant, "registry")
		if err != nil {
			return err
		}
		if rl != nil {
			for _, r := range rl.log.Recovery().Serve {
				if r.Kind != wal.KSpecReg {
					continue
				}
				if _, rerr := s.reg.Register(r.Site, r.Sym, string(r.Payload)); rerr != nil {
					s.cfg.Logf("serve: recover spec %s/%s: %v", r.Site, r.Sym, rerr)
				}
			}
		}
		for _, sh := range s.shards {
			dirs, err := os.ReadDir(wal.TenantDir(root, tenant, sh.name))
			if err != nil || len(dirs) == 0 {
				continue
			}
			tl, err := s.log(tenant, sh.name)
			if err != nil {
				return err
			}
			admits := map[uint64]wal.Record{}
			events := map[uint64][]wal.Record{}
			done := map[uint64]bool{}
			for _, r := range tl.log.Recovery().Serve {
				switch r.Kind {
				case wal.KAdmit:
					admits[r.Seq] = r
				case wal.KEvent:
					events[r.Seq] = append(events[r.Seq], r)
				case wal.KDone:
					done[r.Seq] = true
				}
			}
			for id, ad := range admits {
				if id > maxID {
					maxID = id
				}
				if done[id] {
					continue
				}
				inst := &Instance{
					ID: id, Tenant: ad.Site, Spec: ad.Sym, Mode: ad.Note,
					Seed: ad.At, shard: sh, srv: s, recovered: true,
				}
				s.instances[id] = inst
				mActive.Add(1)
				relaunch = append(relaunch, pending{inst: inst, events: events[id]})
			}
		}
	}
	if maxID > s.nextID {
		s.nextID = maxID
	}
	for _, p := range relaunch {
		p := p
		entry, rerr := s.reg.Lookup(p.inst.Tenant, p.inst.Spec)
		if rerr != nil {
			s.cfg.Logf("serve: recover instance %d: %v", p.inst.ID, rerr)
			s.mu.Lock()
			delete(s.instances, p.inst.ID)
			s.mu.Unlock()
			mActive.Add(-1)
			continue
		}
		mRecovered.Inc()
		if !s.enqueue(p.inst.shard, func() {
			p.inst.start(entry)
			// Replay journaled external announcements without re-logging.
			if p.inst.Mode == ModeExternal {
				p.inst.mu.Lock()
				r := p.inst.runner
				p.inst.mu.Unlock()
				if r == nil {
					return
				}
				for _, ev := range p.events {
					sym, err := algebra.ParseSymbol(ev.Sym)
					if err != nil {
						continue
					}
					if _, _, err := r.Attempt(sym, ev.Note == "forced"); err != nil {
						s.cfg.Logf("serve: recover replay %d %s: %v", p.inst.ID, ev.Sym, err)
					}
				}
			}
		}) {
			s.cfg.Logf("serve: recover instance %d: mailbox full", p.inst.ID)
		}
	}
	return nil
}
