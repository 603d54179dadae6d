// Package drain is the shared graceful-shutdown helper for the
// long-lived daemons (cmd/wfserve, cmd/wfnet workers): one SIGTERM or
// SIGINT triggers the process's drain function exactly once — stop
// admitting, settle in-flight work, checkpoint the WAL — while a
// second signal during the drain aborts immediately, the conventional
// escape hatch for a wedged shutdown.
package drain

import (
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// Signals are the shutdown signals the daemons drain on.
var Signals = []os.Signal{syscall.SIGTERM, syscall.SIGINT}

// Handler runs a drain function exactly once, from a signal or a
// programmatic Trigger, whichever comes first.
type Handler struct {
	fn   func(os.Signal)
	ch   chan os.Signal
	once sync.Once
	done chan struct{}
	wg   sync.WaitGroup
}

// Notify starts watching for shutdown signals.  On the first signal
// fn runs on the watcher goroutine; a second signal while fn is still
// running exits the process with status 130.  Trigger runs the same
// drain exactly once from code (EOF-driven workers, tests); Stop
// unregisters the watcher.
func Notify(fn func(sig os.Signal)) *Handler {
	h := &Handler{fn: fn, ch: make(chan os.Signal, 2), done: make(chan struct{})}
	signal.Notify(h.ch, Signals...)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		var sig os.Signal
		select {
		case sig = <-h.ch:
		case <-h.done:
			return
		}
		fin := make(chan struct{})
		go func() {
			h.run(sig)
			close(fin)
		}()
		select {
		case <-fin:
		case <-h.ch:
			os.Exit(130)
		}
	}()
	return h
}

// run executes the drain at most once; concurrent callers block until
// the executing drain completes (sync.Once semantics).
func (h *Handler) run(sig os.Signal) {
	h.once.Do(func() { h.fn(sig) })
}

// Stop unregisters the signal watcher.  A drain already in flight is
// not interrupted; a never-triggered handler simply stops listening.
func (h *Handler) Stop() {
	signal.Stop(h.ch)
	close(h.done)
	h.wg.Wait()
}
