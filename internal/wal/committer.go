package wal

import (
	"sync"
	"sync/atomic"
	"time"
)

// commitParallel bounds concurrent fsyncs per round.
const commitParallel = 8

// Committer is the fsync scheduler every log commits through: a log
// opened with Options{Committer: c} shares c's loop, and one opened
// without gets a private committer of its own.  One round claims every
// dirty log's pending buffer, writes them all (page-cache speed),
// overlaps their fsyncs on a bounded worker pool, and then releases
// every parked waiter and durability notification across every log at
// once.  A round starts as soon as the loop is free, so appends that
// arrive during an fsync ride the next one: N busy logs cost one round
// of overlapped fsyncs instead of N independent fsync loops, which is
// what lets many per-tenant logs on one serve shard amortize a single
// commit.
//
// Lifecycle: Close marks the committer closed, after which Open on it
// fails.  Logs still registered keep being committed by the same loop,
// and the loop exits when the last of them closes.
type Committer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	logs   map[*Log]bool // registered → currently in the dirty queue
	dirty  []*Log
	spare  []*Log // recycled dirty-queue backing array
	closed bool
	done   chan struct{}

	rounds atomic.Int64
}

// CommitterOptions configure a Committer.  It has no fields; the
// commit policy is fixed.
type CommitterOptions struct{}

// NewCommitter starts a shared commit loop.
func NewCommitter(CommitterOptions) *Committer {
	c := &Committer{logs: map[*Log]bool{}, done: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	go c.loop()
	return c
}

// register adds a log; false means the committer is closed.
func (c *Committer) register(l *Log) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.logs[l] = false
	return true
}

// unregister removes a closed log, waking the loop so a closed
// committer can exit once its last log is gone.
func (c *Committer) unregister(l *Log) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.logs, l)
	for i, d := range c.dirty {
		if d == l {
			c.dirty = append(c.dirty[:i], c.dirty[i+1:]...)
			break
		}
	}
	c.cond.Signal()
}

// nudge marks a log dirty and wakes the loop.  Idempotent per round.
func (c *Committer) nudge(l *Log) {
	c.mu.Lock()
	if inDirty, registered := c.logs[l]; registered && !inDirty {
		c.logs[l] = true
		c.dirty = append(c.dirty, l)
		c.cond.Signal()
	}
	c.mu.Unlock()
}

// Close marks the committer closed.  With no log registered it waits
// for the loop to exit; otherwise it returns at once and the loop
// keeps committing the remaining logs until the last one closes.
func (c *Committer) Close() {
	c.mu.Lock()
	c.closed = true
	idle := len(c.logs) == 0
	c.cond.Signal()
	c.mu.Unlock()
	if idle {
		<-c.done
	}
}

// loop is the round scheduler: wait for dirt, then commit the claimed
// set.  It exits once the committer is closed and no log is left.
func (c *Committer) loop() {
	defer close(c.done)
	for {
		c.mu.Lock()
		for len(c.dirty) == 0 && !(c.closed && len(c.logs) == 0) {
			c.cond.Wait()
		}
		if len(c.dirty) == 0 {
			c.mu.Unlock()
			return
		}
		batch := c.dirty
		c.dirty, c.spare = c.spare[:0], nil
		for _, l := range batch {
			c.logs[l] = false
		}
		c.mu.Unlock()
		c.commit(batch)
		c.mu.Lock()
		if c.spare == nil {
			c.spare = batch[:0]
		}
		c.mu.Unlock()
	}
}

// commit runs one round over the claimed logs: claim + write each
// log's pending bytes in claim order, overlap the fsyncs, then
// advance every durable LSN and fire the released notifications.
func (c *Committer) commit(batch []*Log) {
	type pend struct {
		l      *Log
		f      File
		data   []byte
		lsn    uint64
		synced bool
		err    error // the write's or fsync's failure; poisons the log
	}
	start := time.Now()
	pends := make([]pend, 0, len(batch))
	for _, l := range batch {
		f, data, lsn, ok := l.takePending()
		if !ok {
			continue
		}
		_, err := f.Write(data)
		pends = append(pends, pend{l: l, f: f, data: data, lsn: lsn, synced: err == nil && !l.opts.NoSync, err: err})
	}
	// Overlap the fsyncs: one goroutine per log up to commitParallel.
	// On one spindle the kernel merges the flushes; on real arrays they
	// genuinely proceed in parallel.  Either way every waiter parked on
	// any of these logs shares this one round.  A round with a single
	// flush syncs inline — no goroutine, no semaphore.
	nsync := 0
	for i := range pends {
		if pends[i].synced {
			nsync++
		}
	}
	if nsync == 1 {
		for i := range pends {
			if pends[i].synced {
				pends[i].err = pends[i].f.Sync()
			}
		}
	} else if nsync > 1 {
		sem := make(chan struct{}, commitParallel)
		var wg sync.WaitGroup
		for i := range pends {
			if !pends[i].synced {
				continue
			}
			wg.Add(1)
			sem <- struct{}{}
			go func(p *pend) {
				defer wg.Done()
				p.err = p.f.Sync()
				<-sem
			}(&pends[i])
		}
		wg.Wait()
	}
	dt := time.Since(start)
	for i := range pends {
		p := &pends[i]
		if p.err == nil {
			p.l.observeRate(int64(p.lsn-p.l.durable.Load()), dt)
		}
		p.l.finishCommit(p.data, p.lsn, p.synced, p.err)
	}
	if len(pends) > 0 {
		c.rounds.Add(1)
		mRounds.Inc()
		mRoundLogs.Observe(int64(len(pends)))
	}
}
