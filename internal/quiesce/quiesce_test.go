package quiesce

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTrackerCounts(t *testing.T) {
	var tr NotifyTracker
	if got := tr.Pending(); got != 0 || !tr.IdleNow() {
		t.Fatalf("zero-value Pending = %d, IdleNow = %v", got, tr.IdleNow())
	}
	tr.Add(3)
	tr.Add(2)
	if got := tr.Pending(); got != 5 || tr.IdleNow() {
		t.Fatalf("Pending after Add(3), Add(2) = %d, IdleNow = %v", got, tr.IdleNow())
	}
	for i := 0; i < 5; i++ {
		tr.Done()
	}
	if got := tr.Pending(); got != 0 || !tr.IdleNow() {
		t.Fatalf("Pending after draining = %d, IdleNow = %v", got, tr.IdleNow())
	}
}

// TestNotifyTrackerWaitIdle: idle immediately when zero, refuses while
// pending, and wakes on the drain without polling.
func TestNotifyTrackerWaitIdle(t *testing.T) {
	var tr NotifyTracker
	if !tr.WaitIdle(time.Second) {
		t.Fatal("idle tracker did not report idle")
	}
	tr.Add(1)
	if tr.WaitIdle(20 * time.Millisecond) {
		t.Fatal("busy tracker reported idle")
	}
	done := make(chan bool, 1)
	go func() { done <- tr.WaitIdle(5 * time.Second) }()
	time.Sleep(time.Millisecond)
	tr.Done()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("waiter woken but not idle")
		}
	case <-time.After(time.Second):
		t.Fatal("drain did not wake the waiter")
	}
}

// TestNotifyTrackerIdleWait covers the select-integration contract:
// a registered waiter's channel closes on the zero-transition, and a
// transition that completed before registration is caught by the
// mandatory IdleNow re-check, never by a pulse.
func TestNotifyTrackerIdleWait(t *testing.T) {
	var tr NotifyTracker
	tr.Add(1)
	ch, cancel := tr.IdleWait()
	if tr.IdleNow() {
		t.Fatal("IdleNow with one pending")
	}
	tr.Done()
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("zero-transition did not pulse a registered waiter")
	}
	cancel()

	// Drain with no waiter registered, then register: no pulse is owed,
	// the re-check is what must catch it.
	tr.Add(1)
	tr.Done()
	ch, cancel = tr.IdleWait()
	defer cancel()
	if !tr.IdleNow() {
		t.Fatal("IdleNow false after drain")
	}
	select {
	case <-ch:
		t.Fatal("pre-registration transition pulsed the new channel")
	default:
	}
}

// TestNotifyTrackerConcurrent hammers concurrent completions against
// concurrently arming waiters — the lost-wakeup shape under -race.
func TestNotifyTrackerConcurrent(t *testing.T) {
	var tr NotifyTracker
	const workers = 8
	const items = 200
	var wg sync.WaitGroup
	tr.Add(workers * items)
	var results [4]atomic.Bool
	for i := range results {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			results[slot].Store(tr.WaitIdle(5 * time.Second))
		}(i)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < items; i++ {
				tr.Done()
			}
		}()
	}
	wg.Wait()
	if got := tr.Pending(); got != 0 {
		t.Fatalf("Pending after settle = %d", got)
	}
	for i := range results {
		if !results[i].Load() {
			t.Errorf("waiter %d missed the settle", i)
		}
	}
}

// TestGatePulse: waiters on the current channel wake on Pulse, and a
// fresh channel is armed for the next round.
func TestGatePulse(t *testing.T) {
	var g Gate
	ch1 := g.Chan()
	done := make(chan struct{})
	go func() {
		<-ch1
		close(done)
	}()
	g.Pulse()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("waiter not woken by Pulse")
	}
	ch2 := g.Chan()
	select {
	case <-ch2:
		t.Fatal("fresh gate channel already closed")
	default:
	}
	g.Pulse()
	select {
	case <-ch2:
	default:
		t.Fatal("second Pulse did not close the re-armed channel")
	}
}

// TestGateConcurrent arms and pulses from many goroutines under -race:
// every waiter must wake exactly once per armed channel, with no
// double-close.
func TestGateConcurrent(t *testing.T) {
	var g Gate
	var wg, armed sync.WaitGroup
	var woken atomic.Int64
	const waiters = 16
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		armed.Add(1)
		go func() {
			defer wg.Done()
			ch := g.Chan()
			armed.Done()
			select {
			case <-ch:
				woken.Add(1)
			case <-time.After(5 * time.Second):
			}
		}()
	}
	var pulses sync.WaitGroup
	for i := 0; i < 4; i++ {
		pulses.Add(1)
		go func() {
			defer pulses.Done()
			for j := 0; j < 100; j++ {
				g.Pulse()
			}
		}()
	}
	pulses.Wait()
	// Final pulse, once every waiter has armed: a waiter scheduled only
	// after it would hold a channel nothing closes.
	armed.Wait()
	g.Pulse()
	wg.Wait()
	if woken.Load() != waiters {
		t.Errorf("woke %d of %d waiters", woken.Load(), waiters)
	}
}
